"""Scenario pipeline: net -> free energies -> conjugates -> rates -> checks.

Reports are plain dicts with a fixed field order, serialized to JSON with
``+-inf`` rendered as the strings ``"inf"`` / ``"-inf"``; grid tables are
additionally written as ``x,value`` CSV files.  Everything is deterministic
for a given scenario: reruns produce byte-identical reports.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property

import numpy as np

from . import convex, verifier
from .conjugate import (
    FamilyEvaluation,
    abstract_lf,
    evaluate_family,
    linear_restriction_conjugate,
    stable_abstract_lf,
)
from .convex import GridFunction, chord_slopes, essential_smoothness_check, lf_transform, save_grid_csv
from .extreal import INF
from .free_energy import FamilyTable, lambda_family_table, window_for_t_range
from .measures import (
    ScaledMeasureNet,
    FiniteSupportMeasure,
    coin_example_net,
    demzei_example_net,
    iid_mean_example_net,
)
from .scenario import Scenario, parse_region_specs, parse_tilt_labels
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
    ConditionReport,
    RangeTargets,
    range_condition_check,
    rate_comparison,
    rate_grid,
    sandwich_check,
    vague_ldp_check,
)

SCHEMA_VERSION = 1

DEFAULTS = {
    "window": {"t_max": 1e-2, "t_min": 1e-6, "samples": 48},
    "delta_schedule": "2^-1 .. 2^-count, count=10",
    "tolerances": {
        "convergence": 1e-6,
        "value": 1e-3,
        "ldp": 1e-3,
        "equality": 1e-3,
        "bounds": 1e-6,
        "sandwich_slack": 1e-6,
        "stability": 1e-3,
        "filter": 1e-9,
        "divergence_threshold": 1e12,
        "derivative_bound": 1e-3,
    },
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
            table[key] = list(gf.meta[key])
    return table


def _jsonify(obj):
    """Recursively convert to JSON-safe types; +-inf become strings."""
    if isinstance(obj, np.ndarray):  # 1-D arrays only
        out = obj.tolist()
        if obj.dtype.kind == "f":
            for i in np.flatnonzero(np.isinf(obj)):
                out[i] = "inf" if out[i] > 0 else "-inf"
        return out
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
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


def _free_energy_grid(fe: FamilyEvaluation, label: str) -> GridFunction:
    """``lam -> F(h_lam)`` of a linear family, with per-point convergence flags."""
    meta = {"converged": fe.table.converged.tolist()}
    return GridFunction(fe.family.lam, fe.values, label=label, meta=meta)


def _family_table(state: "PipelineState") -> dict:
    table = state.fe_family.table
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


class PipelineState:
    """Everything the checks need, each piece computed once per scenario.

    The free energies that every command reports are evaluated up front;
    the conjugates, the rate grid and what depends on them are built on
    first use, so ``free-energy`` never pays for them.
    """

    def __init__(self, scenario: Scenario, threads: int = 1):
        self.scenario = scenario
        tol = scenario.tolerances
        self.net = build_net(scenario)
        self.window = window_for_t_range(
            self.net, scenario.window.t_max, scenario.window.t_min, scenario.window.samples
        )
        self.rate_window = window_for_t_range(
            self.net,
            scenario.rate_window.t_max,
            scenario.rate_window.t_min,
            scenario.rate_window.samples,
        )
        self.deltas = verifier.default_delta_schedule(scenario.delta_count)

        g = scenario.lambda_grid
        self.G = (g.lo, g.hi)
        self.linear_fam = linear_family(g.lo, g.hi, g.resolution)
        self.family = build_family(scenario)

        conv = tol.convergence
        div = tol.divergence_threshold

        def eval_fam(f):
            return evaluate_family(self.net, f, self.window, conv, div)

        jobs = {"linear": self.linear_fam, "family": self.family}
        if scenario.wide_lambda_grid:
            w = scenario.wide_lambda_grid
            jobs["wide"] = linear_family(w.lo, w.hi, w.resolution)
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = {k: pool.submit(eval_fam, f) for k, f in jobs.items()}
                evals = {k: fut.result() for k, fut in futures.items()}
        else:
            evals = {k: eval_fam(f) for k, f in jobs.items()}

        self.fe_linear = evals["linear"]
        self.fe_family = evals["family"]

        self.L = _free_energy_grid(self.fe_linear, "L")
        self.L_wide = _free_energy_grid(evals["wide"], "L_wide") if "wide" in evals else None

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
        return lf_transform(self.L, self.x_grid).with_label("L_star")

    @cached_property
    def abstract_star(self) -> GridFunction:
        tol = self.scenario.tolerances
        stable = stable_abstract_lf(
            self.net,
            self.family,
            self.x_grid,
            self.window,
            tol.convergence,
            tol.divergence_threshold,
            stability_tol=tol.stability,
            fe=self.fe_family,
        )
        return stable.grid.with_label("abstract_star")

    @cached_property
    def rfe(self):
        return rate_grid(self.net, self.x_grid, self.deltas, self.rate_window)

    @cached_property
    def _vague_ldp(self) -> tuple[bool, GridFunction, float]:
        return vague_ldp_check(self.rfe, self.scenario.tolerances.ldp)

    @property
    def ldp_holds(self) -> bool:
        return self._vague_ldp[0]

    @property
    def J(self) -> GridFunction:
        return self._vague_ldp[1]

    @property
    def ldp_max_gap(self) -> float:
        return self._vague_ldp[2]

    @cached_property
    def single_tilts(self) -> tuple[list[TiltFunction], FamilyTable]:
        """The requested ``varadhan`` tilts, then ``linear:0``, in one table."""
        s = self.scenario
        tilts = []
        if "varadhan" in s.all_checks():
            tilts = parse_tilt_labels(s.check_params.get("varadhan_tilts", ""))
        tilts.append(TiltFunction.linear(0.0))
        table = lambda_family_table(
            self.net, explicit_family(tilts), self.window,
            s.tolerances.convergence, s.tolerances.divergence_threshold,
        )
        return tilts, table

    @cached_property
    def lambda_bar_zero(self) -> float:
        return self.single_tilts[1].value[-1].item()

    @cached_property
    def targets(self) -> RangeTargets:
        return RangeTargets(
            rfe=self.rfe,
            abstract_star=self.abstract_star,
            linear_star=self.L_star,
            J=self.J,
            lambda_bar_zero=self.lambda_bar_zero,
        )


def _range_condition_entry(state: PipelineState, cid: str) -> dict:
    s = state.scenario
    tol = s.tolerances
    if cid == "gartner-ellis-b-sub":
        if "sub_G" not in s.check_params:
            raise ValueError("gartner-ellis-b-sub requires sub_lo/sub_hi in [checks]")
        lo, hi = s.check_params["sub_G"]
        L_sub = state.L.restrict_open(lo, hi, label="L_sub")
        L_star_sub = lf_transform(L_sub, state.x_grid).with_label("L_star_sub")
        targets = RangeTargets(
            rfe=state.rfe,
            abstract_star=state.abstract_star,
            linear_star=L_star_sub,
            J=state.J,
            lambda_bar_zero=state.lambda_bar_zero,
        )
        rep = range_condition_check(
            L_sub, (lo, hi), targets, ["gartner-ellis-b"], tol.filter
        )[0]
        zero_in = lo < 0.0 < hi
        rep = ConditionReport(
            condition_id=cid,
            hypothesis_holds=rep.hypothesis_holds and zero_in,
            witnesses=rep.witnesses,
            notes={**rep.notes, "sub_G": [lo, hi], "zero_in_G": zero_in},
        )
    elif cid == "ellis-two-slope" and state.family.kind != "two_slope":
        lo, hi, res = s.check_params.get("two_slope", (-4.0, 4.0, 41))
        aux = two_slope_family((lo, hi), (lo, hi), res)
        aux_star = stable_abstract_lf(
            state.net,
            aux,
            state.x_grid,
            state.window,
            tol.convergence,
            tol.divergence_threshold,
            stability_tol=tol.stability,
        ).grid
        targets = RangeTargets(
            rfe=state.rfe,
            abstract_star=aux_star,
            linear_star=state.L_star,
            J=state.J,
            lambda_bar_zero=state.lambda_bar_zero,
        )
        rep = range_condition_check(
            state.L, state.G, targets, ["ellis-two-slope"], tol.filter
        )[0]
    else:
        rep = range_condition_check(
            state.L, state.G, targets=state.targets, condition_ids=[cid],
            filter_tol=tol.filter,
        )[0]

    notes = dict(rep.notes)
    if cid == "gartner-ellis-b" and not (state.G[0] < 0.0 < state.G[1]):
        notes["zero_in_G"] = False
        rep = ConditionReport(cid, False, rep.witnesses, rep.conclusions_checked, notes)
    if cid == "gartner-ellis-a":
        notes["essentially_smooth"] = essential_smoothness_check(state.L)[0]
    if cid == "ellis-two-slope":
        notes["premise_all_exist"] = True  # enforced by stable_abstract_lf
    conclusions = []
    if rep.hypothesis_holds and state.ldp_holds:
        eq = s.tolerances.equality
        dom_J = np.isfinite(state.J.values)
        if cid in ("gartner-ellis-a", "gartner-ellis-b", "gartner-ellis-b-sub"):
            holds, worst, _ = verifier.equality_on_mask(
                state.J, state.targets.linear_star, np.ones_like(dom_J), eq
            )
            conclusions.append(
                {"claim": "J == linear conjugate everywhere", "holds": holds,
                 "max_violation": None if worst == INF else worst}
            )
        else:
            holds, worst, _ = verifier.equality_on_mask(
                state.J, state.abstract_star, np.ones_like(dom_J), eq
            )
            conclusions.append(
                {"claim": "J == abstract conjugate everywhere", "holds": holds,
                 "max_violation": None if worst == INF else worst}
            )
            holds2, worst2, _ = verifier.equality_on_mask(
                state.J, state.targets.linear_star, dom_J, eq
            )
            conclusions.append(
                {"claim": "J == linear conjugate on dom(J)", "holds": holds2,
                 "max_violation": None if worst2 == INF else worst2}
            )
    return {
        "condition_id": cid,
        "holds": rep.hypothesis_holds,
        "witnesses": list(rep.witnesses[:16]),
        "witness_count": len(rep.witnesses),
        "conclusions": conclusions,
        "notes": notes,
    }


def _run_check(state: PipelineState, cid: str) -> dict:
    s = state.scenario
    tol = s.tolerances
    if cid == "vague-ldp":
        return {
            "condition_id": cid,
            "holds": state.ldp_holds,
            "max_gap": state.ldp_max_gap,
            "tol": tol.ldp,
        }
    if cid == "exp-tight":
        eps_list = s.check_params.get("eps_list", [0.1, 0.01])
        schedule = s.check_params.get("r_schedule", [1.0, 2.0, 4.0, 8.0])
        ok, table = verifier.exponential_tightness_check(
            state.net, eps_list, schedule, state.rate_window
        )
        return {"condition_id": cid, "holds": ok, "table": table}
    if cid == "ldp-bounds":
        regions = parse_region_specs(s.check_params.get("regions", ""))
        result = verifier.ldp_bounds_check(
            state.net, state.J, regions, state.rate_window, tol.bounds
        )
        return {"condition_id": cid, "holds": result["holds"], "regions": result["regions"]}
    if cid == "varadhan":
        tilts, table = state.single_tilts
        entries = []
        ok = True
        for i, tilt in enumerate(tilts[:-1]):
            holds, lhs, rhs = verifier.varadhan_identity_check(
                state.net, tilt, state.rfe, state.window, tol.value,
                est=table.estimate(i),
            )
            ok = ok and holds
            entries.append(
                {"tilt": tilt.label, "free_energy": lhs, "sup_form": rhs, "holds": holds}
            )
        return {"condition_id": cid, "holds": ok, "tilts": entries, "tol": tol.value}
    if cid == "derivative-bound":
        ok, failures = verifier.derivative_bound_scan(
            state.L, state.rfe, tol.derivative_bound
        )
        return {
            "condition_id": cid,
            "holds": ok,
            "failures": failures[:8],
            "tol": tol.derivative_bound,
        }
    if cid == "sandwich":
        ok, worst = sandwich_check(
            state.L_star, state.abstract_star, state.rfe, tol.sandwich_slack
        )
        return {"condition_id": cid, "holds": ok, "worst": worst, "slack": tol.sandwich_slack}
    if cid == "conjugate-consistency":
        direct = abstract_lf(state.fe_linear, state.x_grid)
        via_hull = linear_restriction_conjugate(state.fe_linear, state.x_grid)
        _, worst, witnesses = verifier.equality_on_mask(
            direct, via_hull, np.ones(state.x_grid.shape, dtype=bool), 1e-6
        )
        return {
            "condition_id": cid,
            "holds": worst <= 1e-6,
            "max_gap": None if worst == INF else worst,
            "witnesses": witnesses[:8],
        }
    if cid == "rate-compare":
        dom_J = np.isfinite(state.J.values)
        filt = state.rfe.l1.values > -state.lambda_bar_zero + tol.filter
        masks = {"dom_J": dom_J, "dom_J_filtered": dom_J & filt}
        result = rate_comparison(
            state.J, state.L_star, state.abstract_star, masks, tol.equality
        )
        return {
            "condition_id": cid,
            "holds": result["holds"],
            "checks": result["checks"],
            "allowed_differences": result["allowed_differences"],
        }
    return _range_condition_entry(state, cid)


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
    rate = "abstract conjugate over the tilt family" if state.ldp_holds else None
    return {
        "all_requested_hold": run_ok,
        "narrow_ldp": narrow,
        "rate_function": rate,
        "summary": summary,
    }


def run_scenario(scenario: Scenario, out_dir: str | None = None, threads: int = 1):
    """Execute the full pipeline; returns (report, all_requested_hold)."""
    state = PipelineState(scenario, threads=threads)
    checks = [_run_check(state, cid) for cid in scenario.all_checks()]
    informational = {
        c for c in scenario.informational_checks if c not in scenario.run_checks
    }
    for entry in checks:
        entry["informational"] = entry["condition_id"] in informational

    tables = {
        "L": _grid_function_table(state.L),
        "L_star": _grid_function_table(state.L_star),
        "abstract_star": _grid_function_table(state.abstract_star),
        "l0": _grid_function_table(state.rfe.l0),
        "l1": _grid_function_table(state.rfe.l1),
        "J": _grid_function_table(state.J),
    }
    if state.L_wide is not None:
        tables["L_wide"] = _grid_function_table(state.L_wide)
    family_table = _family_table(state)

    verdict = _verdict(state, checks, informational)
    report = {
        "schema_version": SCHEMA_VERSION,
        "scenario": _scenario_echo(scenario),
        "defaults": DEFAULTS,
        "window_indices": {
            "main": [int(k) for k in state.window.indices(state.net)],
            "rate": [int(k) for k in state.rate_window.indices(state.net)],
        },
        "tables": tables,
        "family": family_table,
        "checks": checks,
        "verdict": verdict,
    }
    report = _jsonify(report)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        prefix = scenario.output_prefix
        grids = {
            "L": state.L,
            "L_star": state.L_star,
            "abstract_star": state.abstract_star,
            "l0": state.rfe.l0,
            "l1": state.rfe.l1,
            "J": state.J,
        }
        if state.L_wide is not None:
            grids["L_wide"] = state.L_wide
        for name, gf in grids.items():
            save_grid_csv(gf, os.path.join(out_dir, f"{prefix}_{name}.csv"))
        with open(
            os.path.join(out_dir, f"{prefix}_family.csv"), "w", encoding="utf-8"
        ) as fh:
            for label, value, conv in zip(
                family_table["members"], family_table["values"], family_table["converged"]
            ):
                fh.write(f"{label},{float(value)!r},{str(conv).lower()}\n")
        with open(
            os.path.join(out_dir, f"{prefix}_report.json"), "w", encoding="utf-8"
        ) as fh:
            json.dump(report, fh, indent=1, sort_keys=False)
            fh.write("\n")

    return report, verdict["all_requested_hold"]


def run_free_energy(scenario: Scenario, out_dir: str | None = None, threads: int = 1):
    """Free energies only: the L table(s) and the family table, no checks."""
    state = PipelineState(scenario, threads=threads)
    tables = {"L": _grid_function_table(state.L)}
    if state.L_wide is not None:
        tables["L_wide"] = _grid_function_table(state.L_wide)
    family_table = _family_table(state)
    family_table["liminf"] = state.fe_family.table.liminf
    family_table["limsup"] = state.fe_family.table.limsup
    report = _jsonify(
        {
            "schema_version": SCHEMA_VERSION,
            "scenario": _scenario_echo(scenario),
            "tables": tables,
            "family": family_table,
        }
    )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        prefix = scenario.output_prefix
        save_grid_csv(state.L, os.path.join(out_dir, f"{prefix}_L.csv"))
        if state.L_wide is not None:
            save_grid_csv(state.L_wide, os.path.join(out_dir, f"{prefix}_L_wide.csv"))
        with open(
            os.path.join(out_dir, f"{prefix}_free_energy.json"), "w", encoding="utf-8"
        ) as fh:
            json.dump(report, fh, indent=1, sort_keys=False)
            fh.write("\n")
    return report


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
