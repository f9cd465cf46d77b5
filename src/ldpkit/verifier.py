"""Empirical rate functions and large-deviation checks.

The two local rate functions at a point ``x`` are built from powered masses
of shrinking open balls along the net:

* lower (``l0``): ``sup_delta -log( limsup_k mu_k(B(x,delta))^{t_k} )``
* upper (``l1``): ``sup_delta -log( liminf_k mu_k(B(x,delta))^{t_k} )``

``l0 == l1`` on the grid is the empirical criterion for a vague large
deviation principle, and then ``J = l0`` is the rate function.  On top of
these the module checks exponential tightness, the set-wise LDP bounds, the
Varadhan-style identity ``F(h) = sup_x (h(x) - l1(x))``, the one-sided
derivative inequality ``l1(s) <= lam0 * s - L(lam0)``, the derivative-range
coverage conditions that imply the LDP, and the rate-function equalities
those conditions guarantee.

All liminf/limsup estimates follow the same window convention as the
free-energy module (min/max over a geometric tail sample).  The ball radii
walk a fixed decreasing schedule; for finite-support measures the infimum
over neighborhoods is attained once the radius separates atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .convex import (
    GridFunction,
    derivative_range,
    interior_mask,
    is_convex_table,
    one_sided_derivatives,
)
from .extreal import INF, NEG_INF, ext_abs_diff
from .free_energy import (
    DEFAULT_DIVERGENCE_THRESHOLD,
    DEFAULT_TOL,
    LimitEstimate,
    WindowSpec,
    lambda_of,
)
from .measures import RegionSet, ScaledMeasureNet
from .tilts import TiltFunction

DEFAULT_FILTER_TOL = 1e-9


def default_delta_schedule(num: int = 10) -> tuple[float, ...]:
    return tuple(2.0 ** (-k) for k in range(1, num + 1))


# ---------------------------------------------------------------------------
# local rate functions
# ---------------------------------------------------------------------------


def _local_rates(net: ScaledMeasureNet, xs, deltas, window: WindowSpec):
    """``(l0, l1)`` at every point of ``xs``.

    One table of powered ball masses ``t_k * log mu_k(B(x, delta))``
    (samples x points x radii) is reduced over the samples (max for the
    limsup of ``l0``, min for the liminf of ``l1``) and then, as
    ``-log estimate``, over the radii.
    """
    xs = np.asarray(xs, dtype=float)[:, None]
    d = np.asarray(deltas, dtype=float)
    powered = []
    for k in window.indices(net):
        m, t = net.at(int(k))
        powered.append(t * m.log_masses_in(xs - d, xs + d))
    powered = np.array(powered)
    # -(-inf) = +inf: an empty ball in every sample gives an infinite rate
    rate = lambda est: np.max(-est + 0.0, axis=-1, initial=NEG_INF)
    return rate(powered.max(axis=0)), rate(powered.min(axis=0))


def local_rate(
    net: ScaledMeasureNet,
    x: float,
    deltas: Sequence[float],
    window: WindowSpec,
    mode: str,
) -> float:
    """One value of the lower (``mode='lower'``) or upper rate function.

    For each ball radius the powered-mass limit is estimated over the
    window (max for the limsup of the lower function, min for the liminf of
    the upper one); the result is the sup over radii of ``-log estimate``.
    """
    if mode not in ("lower", "upper"):
        raise ValueError("mode must be 'lower' or 'upper'")
    dl = list(deltas)
    if not dl or any(d <= 0 for d in dl) or any(b >= a for a, b in zip(dl, dl[1:])):
        raise ValueError("deltas must be strictly decreasing and positive")
    l0, l1 = _local_rates(net, [x], dl, window)
    return float((l0 if mode == "lower" else l1)[0])


@dataclass(frozen=True)
class RateFunctionEstimate:
    """Lower/upper rate functions sampled on a shared grid."""

    grid: np.ndarray
    l0: GridFunction
    l1: GridFunction
    deltas: tuple[float, ...]
    window: WindowSpec

    def __post_init__(self):
        with np.errstate(invalid="ignore"):
            gap = self.l1.values - self.l0.values
        gap = np.where(self.l1.values == self.l0.values, 0.0, gap)
        if np.any(gap < -1e-12):
            raise ValueError("lower rate function exceeds the upper one")


def rate_grid(
    net: ScaledMeasureNet,
    grid: Sequence[float],
    deltas: Sequence[float],
    window: WindowSpec,
) -> RateFunctionEstimate:
    """Estimate both local rate functions on a grid of points."""
    xs = np.asarray(grid, dtype=float)
    dl = tuple(deltas)
    l0, l1 = _local_rates(net, xs, dl, window)
    return RateFunctionEstimate(
        grid=xs,
        l0=GridFunction(xs, l0, label="l0"),
        l1=GridFunction(xs, l1, label="l1"),
        deltas=dl,
        window=window,
    )


# ---------------------------------------------------------------------------
# vague LDP and tightness
# ---------------------------------------------------------------------------


def vague_ldp_check(
    rfe: RateFunctionEstimate, tol: float
) -> tuple[bool, GridFunction, float]:
    """Vague-LDP criterion: the two local rate functions agree on the grid.

    Infinities must match exactly; finite values within ``tol``.  Returns
    the verdict, the lower function as the rate function J, and the largest
    finite gap ``|l0 - l1|`` (0 when no gap is finite).
    """
    l0, l1 = rfe.l0.values, rfe.l1.values
    with np.errstate(invalid="ignore"):
        # equal infinities are no gap; a NaN gap fails ``<= tol`` like +inf
        gaps = np.where(l0 == l1, 0.0, np.abs(l0 - l1))
    finite = gaps[np.isfinite(gaps)]
    max_gap = float(finite.max()) if finite.size else 0.0
    J = GridFunction(rfe.grid, l0, label="J")
    return bool(np.all(gaps <= tol)), J, max_gap


def exponential_tightness_check(
    net: ScaledMeasureNet,
    eps_list: Sequence[float],
    R_schedule: Sequence[float],
    window: WindowSpec,
) -> tuple[bool, list[dict]]:
    """Find, per epsilon, the smallest R with small escaping powered mass.

    The complement of [-R, R] gets its powered-mass limsup estimated over
    the window; the first R in the schedule pushing it below epsilon is
    recorded.  Fails when some epsilon admits no such R.
    """
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps_list entries must be positive")
    samples = [net.at(int(k)) for k in window.indices(net)]
    limsups: list[float] = []  # per R, in schedule order; shared by every eps

    def limsup(i: int) -> float:
        if i == len(limsups):
            region = RegionSet.complement_of_closed(-R_schedule[i], R_schedule[i])
            worst = max((t * m.log_mass_in(region) for m, t in samples), default=NEG_INF)
            limsups.append(math.exp(worst))
        return limsups[i]

    table = []
    for eps in eps_list:
        i = next((i for i in range(len(R_schedule)) if limsup(i) < eps), None)
        if i is None:
            table.append({"eps": eps, "R": None, "estimate": None})
        else:
            table.append({"eps": eps, "R": R_schedule[i], "estimate": limsups[i]})
    return all(row["R"] is not None for row in table), table


def ldp_bounds_check(
    net: ScaledMeasureNet,
    J: GridFunction,
    regions: Sequence[tuple[RegionSet, str]],
    window: WindowSpec,
    tol: float,
) -> dict:
    """Set-wise LDP bounds against the capacity of J.

    Closed regions: powered-mass limsup estimate <= sup over region grid
    points of exp(-J) (+ tol).  Open regions: the same sup <= powered-mass
    liminf estimate (+ tol).
    """
    indices = window.indices(net)
    samples = [net.at(int(k)) for k in indices]
    entries = []
    holds = True
    for region, kind in regions:
        if kind not in ("open", "closed"):
            raise ValueError("region tag must be 'open' or 'closed'")
        powered = []
        for m, t in samples:
            logm = m.log_mass_in(region)
            powered.append(math.exp(t * logm) if logm != NEG_INF else 0.0)
        mask = region.mask(J.xs)
        cap = float(np.exp(-J.values[mask]).max()) if mask.any() else 0.0
        if kind == "closed":
            estimate = max(powered)
            violation = estimate - cap
        else:
            estimate = min(powered)
            violation = cap - estimate
        entry_holds = violation <= tol
        holds = holds and entry_holds
        entries.append(
            {
                "kind": kind,
                "estimate": estimate,
                "capacity": cap,
                "violation": max(violation, 0.0),
                "holds": entry_holds,
            }
        )
    return {"holds": holds, "regions": entries, "tol": tol}


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


def varadhan_identity_check(
    net: ScaledMeasureNet,
    tilt: TiltFunction,
    rfe: RateFunctionEstimate,
    window: WindowSpec,
    tol: float,
    free_energy_tol: float = DEFAULT_TOL,
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
    est: LimitEstimate | None = None,
) -> tuple[bool, float, float]:
    """Compare F(h) against ``sup_x ( h(x) - l1(x) )`` on the rate grid.

    A pre-computed free-energy estimate of ``tilt`` may be passed as ``est``.
    """
    if est is None:
        est = lambda_of(net, tilt, window, free_energy_tol, divergence_threshold)
    if not est.converged:
        raise ValueError("free energy of the tilt did not converge")
    h = tilt.eval_array(rfe.grid)
    with np.errstate(invalid="ignore"):
        gaps = h - rfe.l1.values
    gaps = np.where(np.isposinf(rfe.l1.values), NEG_INF, gaps)
    rhs = float(np.max(gaps)) if gaps.size else NEG_INF
    lhs = est.value
    return ext_abs_diff(lhs, rhs) <= tol, lhs, rhs


def derivative_bound_check(
    L: GridFunction,
    rfe: RateFunctionEstimate,
    at: int,
    tol: float,
) -> tuple[bool, dict]:
    """One-sided derivative inequality at a grid point of L.

    For each finite one-sided slope ``s`` at index ``at``:
    ``l1(s) <= lam0 * s - L(lam0) + tol`` with ``l1`` read at the rate-grid
    point nearest to ``s`` (which must lie inside the rate grid's span).
    """
    lam0 = float(L.xs[at])
    Lval = float(L.values[at])
    if not np.isfinite(Lval):
        raise ValueError(f"L is not finite at grid point {lam0}")
    left, right = one_sided_derivatives(L, at)
    details = {"lambda0": lam0, "L": Lval, "slopes": []}
    ok = True
    for side, s in (("left", left), ("right", right)):
        if not np.isfinite(s):
            continue
        if s < rfe.grid[0] or s > rfe.grid[-1]:
            raise ValueError(
                f"slope {s} at lambda0={lam0} lies outside the rate grid span"
            )
        j = int(np.argmin(np.abs(rfe.grid - s)))
        l1 = float(rfe.l1.values[j])
        bound = lam0 * s - Lval
        side_ok = l1 <= bound + tol
        ok = ok and side_ok
        details["slopes"].append(
            {
                "side": side,
                "slope": s,
                "snapped_x": float(rfe.grid[j]),
                "l1": l1,
                "bound": bound,
                "holds": side_ok,
            }
        )
    return ok, details


def derivative_bound_scan(
    L: GridFunction, rfe: RateFunctionEstimate, tol: float
) -> tuple[bool, list[dict]]:
    """Run the derivative inequality at every finite grid point of L."""
    reports = []
    ok = True
    for i in range(L.xs.size):
        if not np.isfinite(L.values[i]):
            continue
        holds, details = derivative_bound_check(L, rfe, i, tol)
        ok = ok and holds
        if not holds:
            reports.append(details)
    return ok, reports


# ---------------------------------------------------------------------------
# derivative-range coverage conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    condition_id: str
    hypothesis_holds: bool
    witnesses: tuple = ()
    conclusions_checked: tuple = ()
    notes: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RangeTargets:
    """Grid functions the coverage conditions are built from.

    All grid functions share ``rfe.grid``.  ``abstract_star`` should carry
    truncation-stability flags (+inf where unstable); ``linear_star`` is the
    classical conjugate of the sampled L; ``J`` is the empirical rate
    function when the vague-LDP check held.
    """

    rfe: RateFunctionEstimate
    abstract_star: GridFunction | None = None
    linear_star: GridFunction | None = None
    J: GridFunction | None = None
    lambda_bar_zero: float = 0.0

    def __post_init__(self):
        for gf in (self.abstract_star, self.linear_star, self.J):
            if gf is not None and not np.array_equal(gf.xs, self.rfe.grid):
                raise ValueError("all range-condition targets must share the rate grid")


def _l1_filter(targets: RangeTargets, filter_tol: float):
    """Mask of the points with l1 strictly above -F(0), with tolerance."""
    return targets.rfe.l1.values > -targets.lambda_bar_zero + filter_tol


_CONDITIONS = {
    "range-dom-l0-filtered": ("l0", True, False),
    "range-dom-l0": ("l0", False, False),
    "range-dom-abstract-filtered": ("abstract", True, False),
    "range-dom-abstract": ("abstract", False, False),
    "range-int-dom-l0-filtered": ("l0", True, True),
    "range-int-dom-l0": ("l0", False, True),
    "range-int-dom-abstract-filtered": ("abstract", True, True),
    "range-int-dom-abstract": ("abstract", False, True),
    "gartner-ellis-a": ("linear", False, True),
    "gartner-ellis-b": ("linear", True, True),
    "ellis-two-slope": ("abstract", True, False),
}


def range_condition_check(
    L_on_G: GridFunction,
    G: tuple[float, float],
    targets: RangeTargets,
    condition_ids: Sequence[str],
    filter_tol: float = DEFAULT_FILTER_TOL,
    merge_gap: float | None = None,
    convexity_tol: float = 1e-6,
) -> list[ConditionReport]:
    """Test derivative-range coverage conditions.

    Each condition asks the range of one-sided slopes of ``L`` restricted
    to open ``G`` to cover a target set of rate-grid points: the effective
    domain of ``l0``, of the abstract conjugate, or the interior of the
    domain of the linear conjugate, optionally filtered by
    ``{l1 > -F(0)}`` (strict, with ``filter_tol`` slack).  Coverage is
    tested up to one local grid cell plus the slope-closure gap; witnesses
    are the uncovered target points.  The interior/convexity variants also
    verify their properness-and-convexity premise numerically and fold it
    into ``hypothesis_holds``.
    """
    rng = derivative_range(L_on_G, G, merge_gap)
    grid = targets.rfe.grid
    cell = np.empty(grid.shape)
    gaps = np.diff(grid)
    cell[0] = gaps[0]
    cell[-1] = gaps[-1]
    if grid.size > 2:
        cell[1:-1] = np.maximum(gaps[:-1], gaps[1:])
    filt = _l1_filter(targets, filter_tol)

    reports = []
    for cid in condition_ids:
        if cid not in _CONDITIONS:
            raise ValueError(f"unknown condition id {cid!r}")
        base, use_filter, use_interior = _CONDITIONS[cid]
        notes: dict = {"merge_gap": rng.merge_gap, "closure": "slope closure used"}
        premise_ok = True

        if base == "l0":
            source = targets.rfe.l0
        elif base == "abstract":
            source = targets.abstract_star
        else:
            source = targets.linear_star
        if source is None:
            raise ValueError(f"condition {cid} needs the {base!r} target grid")

        mask = np.isfinite(source.values)
        if use_interior and cid.startswith("range-int"):
            # premise: the base function is proper convex (lsc on the grid)
            premise_ok = source.is_proper and is_convex_table(source, convexity_tol)
            notes["proper_convex_premise"] = premise_ok
        if use_interior:
            mask = interior_mask(mask)
        if use_filter:
            mask = mask & filt

        uncovered = [
            float(x)
            for x, c in zip(grid[mask], cell[mask])
            if not rng.covers(float(x), slack=c + rng.merge_gap)
        ]
        inclusion = len(uncovered) == 0
        notes["target_size"] = int(mask.sum())
        notes["range_components"] = list(rng.components)
        reports.append(
            ConditionReport(
                condition_id=cid,
                hypothesis_holds=bool(inclusion and premise_ok),
                witnesses=tuple(uncovered),
                notes=notes,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# rate-function equality reports
# ---------------------------------------------------------------------------


def _ext_abs_diffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`~ldpkit.extreal.ext_abs_diff` of every pair of entries."""
    with np.errstate(invalid="ignore", over="ignore"):
        d = np.where(np.isfinite(a) & np.isfinite(b), np.abs(a - b), INF)
    return np.where(a == b, 0.0, d)


def _masked_equality(
    xs: np.ndarray, gaps: np.ndarray, mask: np.ndarray, tol: float
) -> tuple[bool, float, list[float]]:
    mask = np.asarray(mask, dtype=bool)
    worst = float(np.max(gaps[mask], initial=0.0))
    return worst <= tol, worst, xs[mask & (gaps > tol)].tolist()


def equality_on_mask(
    A: GridFunction, B: GridFunction, mask: np.ndarray, tol: float
) -> tuple[bool, float, list[float]]:
    """Max extended-real deviation |A - B| over masked grid points, and the
    masked points farther apart than ``tol``, in grid order."""
    return _masked_equality(A.xs, _ext_abs_diffs(A.values, B.values), mask, tol)


def rate_comparison(
    J: GridFunction,
    Lstar: GridFunction,
    abstract_star: GridFunction,
    masks: dict[str, np.ndarray],
    tol: float,
) -> dict:
    """Equality checks between J, the linear conjugate, and the abstract one.

    Each named mask gets both comparisons; differences outside the masks are
    theorem-allowed and reported informationally.
    """
    out: dict = {"tol": tol, "checks": [], "allowed_differences": []}
    gaps = {
        "J_vs_abstract": _ext_abs_diffs(J.values, abstract_star.values),
        "J_vs_linear": _ext_abs_diffs(J.values, Lstar.values),
    }
    for mask_name, mask in masks.items():
        for pair_name, gap in gaps.items():
            holds, worst, witnesses = _masked_equality(J.xs, gap, mask, tol)
            out["checks"].append(
                {
                    "comparison": pair_name,
                    "mask": mask_name,
                    "holds": holds,
                    "max_violation": None if worst == INF else worst,
                    "witnesses": witnesses[:8],
                }
            )
    union = np.zeros(J.xs.shape, dtype=bool)
    for mask in masks.values():
        union |= mask
    for pair_name, gap in gaps.items():
        diffs = J.xs[~union & (gap > tol)]
        out["allowed_differences"].append(
            {"comparison": pair_name, "outside_masks": diffs[:8].tolist(), "count": diffs.size}
        )
    out["holds"] = all(c["holds"] for c in out["checks"])
    return out


# ---------------------------------------------------------------------------
# the sandwich chain
# ---------------------------------------------------------------------------


def sandwich_check(
    linear_star: GridFunction,
    abstract_star: GridFunction,
    rfe: RateFunctionEstimate,
    slack: float,
) -> tuple[bool, dict]:
    """Pointwise chain linear* <= abstract* <= l0 <= l1 within slack."""
    chain = [
        ("linear_star<=abstract_star", linear_star.values, abstract_star.values),
        ("abstract_star<=l0", abstract_star.values, rfe.l0.values),
        ("l0<=l1", rfe.l0.values, rfe.l1.values),
    ]
    worst = {"violation": 0.0, "link": None, "x": None}
    for name, lo_vals, hi_vals in chain:
        # lo = +inf under a finite hi is a hard violation; points with
        # hi = +inf or lo = -inf are skipped
        with np.errstate(invalid="ignore", over="ignore"):
            viol = np.where(np.isposinf(lo_vals), INF, lo_vals - hi_vals)
        skip = np.isposinf(hi_vals) | np.isneginf(lo_vals)
        viol = np.where(skip, NEG_INF, viol)
        # the first strict maximum wins, across links and then points
        if viol.size and viol.max() > worst["violation"]:
            i = int(np.argmax(viol))
            worst = {"violation": float(viol[i]), "link": name, "x": float(rfe.grid[i])}
    return worst["violation"] <= slack, worst
