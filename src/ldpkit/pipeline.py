"""Scenario pipeline: net -> free energies -> conjugates -> rates -> checks.

A report is a dict with a fixed field order whose tables are numpy arrays.
Its JSON and CSV files are written straight from that tree, each distinct
float of an array formatted once, and byte-identical on reruns; the run_*
functions return its JSON-safe copy, ``+-inf`` as ``"inf"`` / ``"-inf"``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, replace
from functools import cached_property, partial

import numpy as np

from . import convex, verifier
from .conjugate import stable_abstract_lf
from .convex import GridFunction, _write_rows, chord_slopes, essential_smoothness_check, lf_transform
from .extreal import INF
from .free_energy import (
    FamilyTable,
    L_from_table,
    NotConverged,
    WindowSpec,
    lambda_family_table,
    window_for_t_range,
)
from .measures import (
    ScaledMeasureNet,
    FiniteSupportMeasure,
    coin_example_net,
    demzei_example_net,
    iid_mean_example_net,
)
from .scenario import DELTA_COUNT, KNOWN_CHECKS, WINDOW_SAMPLES, Scenario, Tolerances, WindowConfig
from .tilts import (
    TiltFamily,
    TiltFunction,
    explicit_family,
    family_union,
    linear_family,
    qn_family,
    two_slope_family,
)
from .verifier import (
    RangeTargets,
    conjugate_consistency_check,
    derivative_bound_scan,
    equality_on_mask,
    exponential_tightness_check,
    ldp_bounds_check,
    range_condition_check,
    rate_comparison,
    rate_grid,
    sandwich_check,
    vague_ldp_check,
    varadhan_identity_check,
)

SCHEMA_VERSION = 1

DEFAULTS = {
    "window": {"t_max": 1e-2, "t_min": 1e-6, "samples": WINDOW_SAMPLES},
    "delta_schedule": f"2^-1 .. 2^-count, count={DELTA_COUNT}",
    "tolerances": asdict(Tolerances()),
    "range_merge_factor": convex.RANGE_MERGE_FACTOR,
    "coverage_slack": "one local grid cell + slope merge gap",
}


def build_net(scenario: Scenario) -> ScaledMeasureNet:
    kind = scenario.net_kind
    if kind == "coin":
        return coin_example_net(scenario.net_params["max_index"])
    if kind == "dem-zei":
        return demzei_example_net(max_index=scenario.net_params["max_index"])
    if kind == "iid-bernoulli":
        p = scenario.net_params["p"]
        base = FiniteSupportMeasure.from_atoms([(0.0, 1.0 - p), (1.0, p)])
        return iid_mean_example_net(base, scenario.net_params["max_n"])
    raise ValueError(f"unknown net kind {kind!r}")


def build_family(scenario: Scenario) -> TiltFamily:
    kind = scenario.family_kind
    p = scenario.family_params
    if kind == "two-slope":
        return two_slope_family((p["lo"], p["hi"]), (p["lo"], p["hi"]), p["resolution"])
    if kind == "linear":
        return linear_family(p["lo"], p["hi"], p["resolution"])
    if kind == "qn-plus-linear":
        g = scenario.lambda_grid
        return family_union(
            qn_family(p["n_max"]), linear_family(g.lo, g.hi, g.resolution)
        )
    raise ValueError(f"unknown family kind {kind!r}")


def _grid_function_table(gf: GridFunction) -> dict:
    table = {"xs": gf.xs, "values": gf.values}
    for key in ("converged", "flagged", "off_slope_range"):
        if key in gf.meta:
            table[key] = gf.meta[key]
    return table


def _jsonify(obj):
    """JSON-safe copy of a report tree, +-inf as strings."""
    if isinstance(obj, np.ndarray):  # 1-D arrays only
        if obj.dtype.kind == "f" and np.isinf(obj).any():
            out = obj.astype(object)
            out[np.isposinf(obj)] = "inf"
            out[np.isneginf(obj)] = "-inf"
            return out.tolist()
        return obj.tolist()
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if {*map(type, obj)} <= {str}:  # labels: already JSON-safe
            return list(obj)
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    return obj


class _ArrayText:
    """One write's memo: ``reprs`` gives a float array's entry texts, each
    distinct value formatted once, for the CSV files and the JSON report."""

    def __init__(self):
        self._reprs = {}

    def reprs(self, arr: np.ndarray) -> list[str]:
        if id(arr) not in self._reprs:  # the entry keeps arr, so its id stays its own
            self._reprs[id(arr)] = (arr, convex._reprs(arr))
        return self._reprs[id(arr)][1]


_NESTED = (dict, list, tuple, np.ndarray)
_NON_FINITE_JSON = {"inf": '"inf"', "-inf": '"-inf"', "nan": "NaN"}  # repr -> JSON


def _json_pieces(obj, level: int = 0, *, text: _ArrayText):
    """The text of ``json.dumps(_jsonify(obj), indent=1)``, byte for byte, in
    pieces, from the report tree itself.

    ``indent`` makes ``json`` use its pure-Python encoder throughout.  Here
    only the nesting is Python: a float array is joined from its ``text``
    reprs, and any other array, or a container of leaves, is encoded (in its
    ``_jsonify`` form) in one C-encoder call whose item separator carries the
    newline and the indent.  A writer that takes the pieces one by one never
    holds the whole text.
    """
    if not isinstance(obj, _NESTED) or not len(obj):
        yield json.dumps(_jsonify(obj))
        return
    pad = "\n" + " " * (level + 1)
    is_dict, is_array = isinstance(obj, dict), isinstance(obj, np.ndarray)
    opening, closing = "{}" if is_dict else "[]"
    values = obj.values() if is_dict else obj
    if is_array and obj.dtype.kind == "f":
        reprs = text.reprs(obj)
        yield opening + pad + ("," + pad).join(map(_NON_FINITE_JSON.get, reprs, reprs))
    elif is_array or not any(issubclass(t, _NESTED) for t in {*map(type, values)}):
        yield opening + pad + json.dumps(_jsonify(obj), separators=("," + pad, ": "))[1:-1]
    else:
        sep = opening + pad
        for key, value in obj.items() if is_dict else ((None, v) for v in obj):
            yield f"{sep}{json.dumps(str(key))}: " if is_dict else sep
            yield from _json_pieces(value, level + 1, text=text)
            sep = "," + pad
    yield "\n" + " " * level + closing


def _write_outputs(out_dir, prefix, grids: dict, report: dict, name, family=None):
    """Write each grid as ``<prefix>_<key>.csv``, the ``family`` table if
    given as ``<prefix>_family.csv`` and ``report`` as ``<prefix>_<name>.json``.

    One memo formats each distinct value of each float array once for every
    file; it dies with the write.
    """
    text = _ArrayText()
    os.makedirs(out_dir, exist_ok=True)
    path = lambda tail: os.path.join(out_dir, f"{prefix}_{tail}")
    for key, gf in grids.items():
        _write_rows(path(f"{key}.csv"), text.reprs(gf.xs), text.reprs(gf.values))
    if family is not None:
        _write_rows(
            path("family.csv"),
            family["members"],
            text.reprs(family["values"]),
            np.where(family["converged"], "true", "false").tolist(),
        )
    with open(path(f"{name}.json"), "w", encoding="utf-8") as fh:
        fh.writelines(_json_pieces(report, text=text))
        fh.write("\n")


def _family_table(state: "PipelineState") -> dict:
    table = state.family_table
    return {
        "kind": state.family.kind,
        "members": state.family.labels(),
        "values": table.value,
        "converged": table.converged,
    }


def _scenario_echo(s: Scenario) -> dict:
    return {
        "name": s.name,
        "net": {"kind": s.net_kind, **s.net_params},
        "window": vars(s.window).copy(),
        "rate_window": vars(s.rate_window).copy(),
        "lambda_grid": vars(s.lambda_grid).copy(),
        "wide_lambda_grid": vars(s.wide_lambda_grid).copy() if s.wide_lambda_grid else None,
        "family": {"kind": s.family_kind, **s.family_params},
        "x_grid": {
            "lo": s.x_lo,
            "hi": s.x_hi,
            "points": s.x_points,
            "include_l_slopes": s.include_l_slopes,
        },
        "delta_count": s.delta_count,
        "tolerances": vars(s.tolerances).copy(),
        "checks": {
            "run": list(s.run_checks),
            "informational": list(s.informational_checks),
        },
    }


def _scenario_window(net: ScaledMeasureNet, w: WindowConfig, section: str, flags) -> WindowSpec:
    try:
        return window_for_t_range(net, w.t_max, w.t_min, w.samples)
    except ValueError as exc:  # the t range holds fewer than two of the net's indices
        source = flags.get(f"[{section}]", f"[{section}] t_max = {w.t_max}, t_min = {w.t_min}")
        raise ValueError(f"{source}: {exc} of the net's 1..{net.max_index}") from exc


class PipelineState:
    """Everything the checks need, each piece computed once per scenario.

    The free energies that every command reports are evaluated up front;
    the conjugates, the rate grid and what depends on them are built on
    first use, so ``free-energy`` never pays for them.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.tol, self.params = scenario.tolerances, scenario.check_params
        self.net = build_net(scenario)
        self.window, self.rate_window = (
            _scenario_window(self.net, w, section, scenario.flags)
            for w, section in ((scenario.window, "window"), (scenario.rate_window, "rate-window"))
        )
        self.radius = 2.0 ** -scenario.delta_count

        g = scenario.lambda_grid
        self.G = (g.lo, g.hi)
        self.linear_fam = linear_family(g.lo, g.hi, g.resolution)
        self.family = build_family(scenario)

        self.linear_table = self._table(self.linear_fam)
        self.family_table = self._table(self.family)
        self.L = L_from_table(self.linear_fam, self.linear_table)
        self.L_wide = None
        if scenario.wide_lambda_grid:
            w = scenario.wide_lambda_grid
            wide = linear_family(w.lo, w.hi, w.resolution)
            self.L_wide = L_from_table(wide, self._table(wide), "L_wide")

    def _table(self, family: TiltFamily) -> FamilyTable:
        """The family's free energies over the main window, at the scenario's tolerances."""
        return lambda_family_table(
            self.net, family, self.window, self.tol.convergence, self.tol.divergence_threshold
        )

    @cached_property
    def x_grid(self) -> np.ndarray:
        s = self.scenario
        xs = np.linspace(s.x_lo, s.x_hi, s.x_points)
        if s.include_l_slopes:
            slopes = chord_slopes(self.L)
            inside = slopes[(slopes > s.x_lo) & (slopes < s.x_hi)]
            xs = np.unique(np.concatenate([xs, inside]))
        return xs

    @cached_property
    def L_star(self) -> GridFunction:
        if not self.L.is_proper:  # e.g. L diverged at every lambda-grid point
            g = self.scenario.lambda_grid
            raise ValueError(f"[lambda-grid] lo = {g.lo}, hi = {g.hi}: L is improper "
                             "(no finite value, or a -inf value)")
        return lf_transform(self.L, self.x_grid).with_label("L_star")

    @cached_property
    def abstract_star(self) -> GridFunction:
        tol = self.tol
        return stable_abstract_lf(
            self.net, self.family, self.family_table, self.x_grid, self.window,
            tol.convergence, tol.divergence_threshold, tol.stability,
        ).with_label("abstract_star")

    @cached_property
    def rfe(self):
        return rate_grid(self.net, self.x_grid, self.radius, self.rate_window)

    @cached_property
    def vague_ldp(self) -> dict:
        return vague_ldp_check(self.rfe, self.tol.ldp)

    @cached_property
    def J(self) -> GridFunction:
        """``l0``, the rate function when the vague-LDP check holds."""
        return self.rfe.l0.with_label("J")

    @cached_property
    def single_tilts(self) -> tuple[list[TiltFunction], FamilyTable]:
        """The requested ``varadhan`` tilts, then ``linear:0``, in one table."""
        wanted = "varadhan" in self.scenario.all_checks()
        tilts = list(self.params.varadhan_tilts) if wanted else []
        tilts.append(TiltFunction.linear(0.0))
        return tilts, self._table(explicit_family(tilts))

    @cached_property
    def lambda_bar_zero(self) -> float:
        return self.single_tilts[1].value[-1].item()

    @cached_property
    def targets(self) -> RangeTargets:
        return RangeTargets(self.rfe, self.abstract_star, self.L_star, self.lambda_bar_zero)


def _first(entry: dict, key: str, n: int) -> dict:
    """``entry`` with only the first ``n`` items of its ``key`` list."""
    return {**entry, key: entry[key][:n]}


def _range_entry(state: PipelineState, cid: str) -> dict:
    """Range condition ``cid``'s entry, its notes and its conclusions.

    ``gartner-ellis-b-sub`` is ``gartner-ellis-b`` on ``sub_G``, with L
    restricted there and its conjugate as the linear target;
    ``ellis-two-slope`` reads the auxiliary two-slope family's conjugate when
    the scenario's family is not two-slope.
    """
    tol, sub = state.tol, cid == "gartner-ellis-b-sub"
    L, G, targets = state.L, state.G, state.targets
    if sub:
        G = state.params.sub_G
        try:
            L = L.restrict_open(*G, label="L_sub")
        except ValueError as exc:
            raise ValueError(f"{cid}: [checks] sub_lo, sub_hi: {exc} of the [lambda-grid]") from exc
        L_star_sub = lf_transform(L, state.x_grid).with_label("L_star_sub")
        targets = replace(targets, linear_star=L_star_sub)
    elif cid == "ellis-two-slope" and state.family.kind != "two_slope":
        lo, hi, res = state.params.two_slope
        aux = two_slope_family((lo, hi), (lo, hi), res)
        aux_star = stable_abstract_lf(
            state.net, aux, state._table(aux), state.x_grid, state.window,
            tol.convergence, tol.divergence_threshold, tol.stability,
        )
        targets = replace(targets, abstract_star=aux_star)
    entry = range_condition_check(L, G, targets, "gartner-ellis-b" if sub else cid, tol.filter)

    notes = entry["notes"]
    if cid.startswith("gartner-ellis-b"):
        zero_in = G[0] < 0.0 < G[1]
        if sub:
            notes["sub_G"] = list(G)
        if sub or not zero_in:
            notes["zero_in_G"] = zero_in
        entry["holds"] = entry["holds"] and zero_in
    if cid == "gartner-ellis-a":
        notes["essentially_smooth"] = essential_smoothness_check(state.L)[0]
    if cid == "ellis-two-slope":
        notes["premise_all_exist"] = True  # enforced by stable_abstract_lf
    if entry["holds"] and state.vague_ldp["holds"]:
        everywhere = np.ones(state.J.xs.shape, dtype=bool)
        if cid.startswith("gartner-ellis"):
            claims = [("J == linear conjugate everywhere", state.L_star, everywhere)]
        else:
            claims = [
                ("J == abstract conjugate everywhere", state.abstract_star, everywhere),
                ("J == linear conjugate on dom(J)", state.L_star, np.isfinite(state.J.values)),
            ]
        for claim, target, mask in claims:
            holds, worst, _ = equality_on_mask(state.J, target, mask, tol.equality)
            entry["conclusions"].append(
                {"claim": claim, "holds": holds,
                 "max_violation": None if worst == INF else worst}
            )
    return _first(entry, "witnesses", 16)


def _derivative_bound(state: PipelineState) -> dict:
    try:
        entry = derivative_bound_scan(state.L, state.rfe, state.tol.derivative_bound)
    except ValueError as exc:  # a slope off the rate grid: the grid is too narrow
        s = state.scenario
        raise ValueError(f"derivative-bound: {exc}: [x-grid] spans {s.x_lo}..{s.x_hi}") from exc
    return _first(entry, "failures", 8)


def _rate_compare(state: PipelineState) -> dict:
    dom_J = np.isfinite(state.J.values)
    filt = verifier._l1_filter(state.targets, state.tol.filter)
    masks = {"dom_J": dom_J, "dom_J_filtered": dom_J & filt}
    return rate_comparison(state.J, state.L_star, state.abstract_star, masks, state.tol.equality)


# check id -> its entry; every id not listed here is a range condition
_CHECKS = {
    "vague-ldp": lambda st: st.vague_ldp,
    "exp-tight": lambda st: exponential_tightness_check(
        st.net, st.params.eps_list, st.params.r_schedule, st.rate_window
    ),
    "ldp-bounds": lambda st: ldp_bounds_check(
        st.net, st.J, st.params.regions, st.rate_window, st.tol.bounds
    ),
    "varadhan": lambda st: varadhan_identity_check(
        st.single_tilts[0][:-1], st.single_tilts[1], st.rfe, st.tol.value
    ),
    "derivative-bound": _derivative_bound,
    "sandwich": lambda st: sandwich_check(
        st.L_star, st.abstract_star, st.rfe, st.tol.sandwich_slack
    ),
    "conjugate-consistency": lambda st: _first(
        conjugate_consistency_check(st.linear_fam, st.linear_table, st.L_star), "witnesses", 8
    ),
    "rate-compare": _rate_compare,
}
_CHECKS.update(
    {cid: partial(_range_entry, cid=cid) for cid in KNOWN_CHECKS if cid not in _CHECKS}
)


def _run_check(state: PipelineState, cid: str) -> dict:
    try:
        return {"condition_id": cid, **_CHECKS[cid](state)}
    except NotConverged as exc:
        key = "[tolerances] convergence"
        source = state.scenario.flags.get(key, f"{key} = {state.tol.convergence}")
        raise ValueError(f"{cid}: {exc} within {source}") from exc


def _verdict(state: PipelineState, checks: list[dict], informational: set[str]) -> dict:
    by_id = {c["condition_id"]: c for c in checks}
    summary = []
    narrow = False
    if by_id.get("vague-ldp", {}).get("holds"):
        summary.append(
            "vague large deviation principle verified on the grid (lower and "
            "upper local rate functions agree); rate function J recorded"
        )
        if by_id.get("exp-tight", {}).get("holds"):
            narrow = True
            summary.append(
                "exponential tightness holds, upgrading the principle to narrow"
            )
    for cid in (
        "range-dom-abstract",
        "range-dom-abstract-filtered",
        "ellis-two-slope",
        "gartner-ellis-a",
        "gartner-ellis-b",
    ):
        if cid in by_id:
            entry = by_id[cid]
            outcome = "holds" if entry["holds"] else "fails"
            tag = " (informational)" if cid in informational else ""
            summary.append(f"derivative-range condition {cid} {outcome}{tag}")
    run_ok = all(
        c["holds"] for c in checks if c["condition_id"] not in informational
    )
    rate = "abstract conjugate over the tilt family" if state.vague_ldp["holds"] else None
    return {
        "all_requested_hold": run_ok,
        "narrow_ldp": narrow,
        "rate_function": rate,
        "summary": summary,
    }


def scenario_report(scenario: Scenario, out_dir: str | None = None):
    """Execute the full pipeline; returns (report tree, all_requested_hold)."""
    state = PipelineState(scenario)
    checks = [_run_check(state, cid) for cid in scenario.all_checks()]
    informational = {
        c for c in scenario.informational_checks if c not in scenario.run_checks
    }
    for entry in checks:
        entry["informational"] = entry["condition_id"] in informational

    grids = {"L": state.L, "L_star": state.L_star, "abstract_star": state.abstract_star,
             "l0": state.rfe.l0, "l1": state.rfe.l1, "J": state.J, "L_wide": state.L_wide}
    grids = {name: gf for name, gf in grids.items() if gf is not None}
    tables = {name: _grid_function_table(gf) for name, gf in grids.items()}
    family_table = _family_table(state)

    verdict = _verdict(state, checks, informational)
    report = {
        "schema_version": SCHEMA_VERSION,
        "scenario": _scenario_echo(scenario),
        "defaults": DEFAULTS,
        "window_indices": {
            "main": state.window.indices(state.net),
            "rate": state.rate_window.indices(state.net),
        },
        "tables": tables,
        "family": family_table,
        "checks": checks,
        "verdict": verdict,
    }
    if out_dir is not None:
        _write_outputs(out_dir, scenario.name, grids, report, "report", family_table)
    return report, verdict["all_requested_hold"]


def run_scenario(scenario: Scenario, out_dir: str | None = None):
    """Execute the full pipeline; returns (JSON-safe report, all_requested_hold)."""
    report, ok = scenario_report(scenario, out_dir)
    return _jsonify(report), ok


def free_energy_report(scenario: Scenario, out_dir: str | None = None) -> dict:
    """Free energies only: the L table(s) and the family table, no checks."""
    state = PipelineState(scenario)
    grids = {name: gf for name, gf in (("L", state.L), ("L_wide", state.L_wide)) if gf is not None}
    tables = {name: _grid_function_table(gf) for name, gf in grids.items()}
    family_table = _family_table(state)
    family_table["liminf"] = state.family_table.liminf
    family_table["limsup"] = state.family_table.limsup
    report = {
        "schema_version": SCHEMA_VERSION,
        "scenario": _scenario_echo(scenario),
        "tables": tables,
        "family": family_table,
    }
    if out_dir is not None:
        _write_outputs(out_dir, scenario.name, grids, report, "free_energy")
    return report


def run_free_energy(scenario: Scenario, out_dir: str | None = None) -> dict:
    """:func:`free_energy_report`'s JSON-safe copy."""
    return _jsonify(free_energy_report(scenario, out_dir))


# ---------------------------------------------------------------------------
# golden comparison
# ---------------------------------------------------------------------------


def golden_diff(got, want, rtol: float = 1e-7, atol: float = 1e-9, path: str = "$"):
    """Structural diff of two JSON-like reports; numeric leaves use tolerances."""
    diffs: list[str] = []
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected object, got {type(got).__name__}"]
        for key in want:
            if key not in got:
                diffs.append(f"{path}.{key}: missing")
            else:
                diffs.extend(golden_diff(got[key], want[key], rtol, atol, f"{path}.{key}"))
        for key in got:
            if key not in want:
                diffs.append(f"{path}.{key}: unexpected")
        return diffs
    if isinstance(want, list):
        if not isinstance(got, list):
            return [f"{path}: expected array, got {type(got).__name__}"]
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        for i, (g, w) in enumerate(zip(got, want)):
            diffs.extend(golden_diff(g, w, rtol, atol, f"{path}[{i}]"))
        return diffs
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            return [f"{path}: expected number, got {got!r}"]
        if abs(got - want) > atol + rtol * abs(want):
            return [f"{path}: {got!r} != {want!r}"]
        return diffs
    if got != want:
        diffs.append(f"{path}: {got!r} != {want!r}")
    return diffs
