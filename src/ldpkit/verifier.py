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
those conditions guarantee, and that the abstract conjugate of the linear
family agrees with the classical one.

Each check returns its report entry: a dict whose first key is ``"holds"``,
followed by the fields a ``run`` report writes under ``checks``, in that
order.  Failures and witnesses come back whole, and the pipeline keeps the
first few; ``rate_comparison`` keeps 8 witnesses per comparison itself.

All liminf/limsup estimates follow the same window convention as the
free-energy module (min/max over a geometric tail sample).  A ball's mass
only grows with its radius, so the sup over radii is attained at the
smallest one, and the rate grid measures balls of that one radius.  The
rate grid and every set-wise query read the net's window through
``free_energy.window_of``, the one the free-energy tables read when the
window specs agree, and pass all of their intervals to
``Window.powered`` at once: one ball-mass kernel call per atom-count stack
of the window's distinct measures.  A region's mass reduces its
intervals' columns, in order, before the power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conjugate import abstract_lf
from .convex import GridFunction, _chords, derivative_range, interior_mask, is_convex_table
from .extreal import INF, NEG_INF, ext_abs_diff, ext_sub
from .free_energy import FamilyTable, NotConverged, WindowSpec, window_of
from .measures import RegionSet, ScaledMeasureNet
from .tilts import TiltFamily, TiltFunction

CONJUGATE_TOL = 1e-6  # the abstract and the classical conjugate of one linear family agree


# ---------------------------------------------------------------------------
# local rate functions
# ---------------------------------------------------------------------------


def _local_rates(net: ScaledMeasureNet, xs, r: float, window: WindowSpec):
    """``(l0, l1)`` at every point of ``xs`` from balls of radius ``r``.

    A larger ball holds at least as much mass, so the sup over radii of
    ``-log estimate`` is attained at the smallest radius, ``r``.  The powered
    masses ``t_k * log mu_k(B(x, r))`` are reduced over the samples: max for
    the limsup of ``l0``, min for the liminf of ``l1``.
    """
    if not 0 < r < INF:
        raise ValueError(f"ball radius must be finite and > 0, got {r}")
    xs = np.asarray(xs, dtype=float)
    powered = window_of(net, window).powered(xs - r, xs + r)
    # -(-inf) = +inf: an empty ball in every sample gives an infinite rate
    return -powered.max(axis=0) + 0.0, -powered.min(axis=0) + 0.0


@dataclass(frozen=True)
class RateFunctionEstimate:
    """Lower/upper rate functions sampled on a shared grid."""

    grid: np.ndarray
    l0: GridFunction
    l1: GridFunction
    radius: float

    def __post_init__(self):
        if np.any(ext_sub(self.l1.values, self.l0.values) < -1e-12):
            raise ValueError("lower rate function exceeds the upper one")


def rate_grid(
    net: ScaledMeasureNet,
    grid: Sequence[float],
    radius: float,
    window: WindowSpec,
) -> RateFunctionEstimate:
    """Estimate both local rate functions on a grid of points."""
    xs = np.asarray(grid, dtype=float)
    l0, l1 = _local_rates(net, xs, radius, window)
    return RateFunctionEstimate(
        grid=xs,
        l0=GridFunction(xs, l0, label="l0"),
        l1=GridFunction(xs, l1, label="l1"),
        radius=radius,
    )


# ---------------------------------------------------------------------------
# vague LDP and tightness
# ---------------------------------------------------------------------------


def vague_ldp_check(rfe: RateFunctionEstimate, tol: float) -> dict:
    """Vague-LDP criterion: the two local rate functions agree on the grid.

    Infinities must match exactly; finite values within ``tol``.
    ``max_gap`` is the largest finite gap ``|l0 - l1|`` (0 when no gap is
    finite).  When the check holds, ``l0`` is the rate function J.
    """
    gaps = ext_abs_diff(rfe.l0.values, rfe.l1.values)
    finite = gaps[np.isfinite(gaps)]
    max_gap = float(finite.max()) if finite.size else 0.0
    return {"holds": bool(np.all(gaps <= tol)), "max_gap": max_gap, "tol": tol}


def _powered_regions(net: ScaledMeasureNet, regions: Sequence[RegionSet], window: WindowSpec):
    """``t_k * log mu_k(region)``, one row per sample and one column per
    region, from one query of all the regions' intervals."""
    ivs = [iv for region in regions for iv in region.intervals]
    return window_of(net, window).powered(
        *([getattr(iv, f) for iv in ivs] for f in ("lo", "hi", "lo_open", "hi_open")),
        counts=[len(region.intervals) for region in regions],
    )


def exponential_tightness_check(
    net: ScaledMeasureNet,
    eps_list: Sequence[float],
    R_schedule: Sequence[float],
    window: WindowSpec,
) -> dict:
    """Find, per epsilon, the smallest R with small escaping powered mass.

    The complement of [-R, R] gets its powered-mass limsup estimated over
    the window; the first R in the schedule pushing it below epsilon is
    recorded.  Fails when some epsilon admits no such R.
    """
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps_list entries must be positive")
    regions = [RegionSet.complement_of_closed(-R, R) for R in R_schedule]
    powered = _powered_regions(net, regions, window)
    # per R, in schedule order; shared by every eps
    limsups = [math.exp(max(col, default=NEG_INF)) for col in powered.T.tolist()]
    table = []
    for eps in eps_list:
        i = next((i for i, est in enumerate(limsups) if est < eps), None)
        if i is None:
            table.append({"eps": eps, "R": None, "estimate": None})
        else:
            table.append({"eps": eps, "R": R_schedule[i], "estimate": limsups[i]})
    return {"holds": all(row["R"] is not None for row in table), "table": table}


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
    if any(kind not in ("open", "closed") for _, kind in regions):
        raise ValueError("region tag must be 'open' or 'closed'")
    powered = _powered_regions(net, [region for region, _ in regions], window)
    entries = []
    holds = True
    for (region, kind), col in zip(regions, powered.T.tolist()):
        # math.exp, not np.exp: numpy's SIMD exp may differ in the last bit
        powered_masses = [math.exp(p) for p in col]
        mask = region.mask(J.xs)
        cap = float(np.exp(-J.values[mask]).max()) if mask.any() else 0.0
        if kind == "closed":
            estimate = max(powered_masses)
            violation = estimate - cap
        else:
            estimate = min(powered_masses)
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
    return {"holds": holds, "regions": entries}


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


def varadhan_identity_check(
    tilts: Sequence[TiltFunction], table: FamilyTable, rfe: RateFunctionEstimate, tol: float
) -> dict:
    """Compare each tilt's free energy F(h) against ``sup_x ( h(x) - l1(x) )``
    on the rate grid.

    Tilt ``i``'s free energy is ``table.value[i]``; the table may hold more
    members after the tilts.
    """
    entries = []
    for i, tilt in enumerate(tilts):
        if not table.converged[i]:
            raise NotConverged(f"free energy of tilt {tilt.label} did not converge")
        h = tilt.eval_array(rfe.grid)
        with np.errstate(invalid="ignore"):
            gaps = h - rfe.l1.values
        gaps = np.where(np.isposinf(rfe.l1.values), NEG_INF, gaps)
        rhs = float(np.max(gaps)) if gaps.size else NEG_INF
        lhs = table.value[i].item()
        entries.append({"tilt": tilt.label, "free_energy": lhs, "sup_form": rhs,
                        "holds": bool(ext_abs_diff(lhs, rhs) <= tol)})
    return {"holds": all(e["holds"] for e in entries), "tilts": entries, "tol": tol}


def derivative_bound_scan(L: GridFunction, rfe: RateFunctionEstimate, tol: float) -> dict:
    """One-sided derivative inequality at every finite grid point of L.

    For each finite one-sided slope ``s`` at ``lam0``: ``l1(s) <= lam0 * s -
    L(lam0) + tol``, with ``l1`` read at the rate-grid point nearest to ``s``
    (ties to the lower one), which must lie inside the rate grid's span.  A
    ``+inf`` neighbour gives the off-grid slope ``-inf`` (left) or ``+inf``
    (right), which is skipped.  ``failures`` details each failing point, in
    grid order.
    """
    at = np.flatnonzero(np.isfinite(L.values))
    chords = _chords(L)
    slopes = np.stack([np.append(NEG_INF, chords)[at], np.append(chords, INF)[at]], 1)
    finite = np.isfinite(slopes)
    grid = rfe.grid
    outside = np.argwhere(finite & ((slopes < grid[0]) | (slopes > grid[-1])))
    if outside.size:  # the first in grid order, a point's left slope before its right
        i, side = outside[0]
        raise ValueError(
            f"slope {float(slopes[i, side])} at lambda0={float(L.xs[at[i]])} "
            "lies outside the rate grid span"
        )
    s = np.where(finite, slopes, grid[0])
    right = np.searchsorted(grid, s)
    left = np.maximum(right - 1, 0)
    nearest = np.where(np.abs(grid[left] - s) <= np.abs(grid[right] - s), left, right)
    l1 = rfe.l1.values[nearest]
    bound = L.xs[at, None] * s - L.values[at, None]
    holds = ~finite | (l1 <= bound + tol)
    fail = ~holds.all(axis=1)
    columns = (L.xs[at], L.values[at], finite, slopes, grid[nearest], l1, bound, holds)
    failures = [
        {
            "lambda0": lam0,
            "L": Lval,
            "slopes": [
                {"side": side, "slope": slope[k], "snapped_x": snapped[k],
                 "l1": l1_at[k], "bound": bnd[k], "holds": ok[k]}
                for k, side in enumerate(("left", "right"))
                if fin[k]
            ],
        }
        for lam0, Lval, fin, slope, snapped, l1_at, bnd, ok in zip(
            *(c[fail].tolist() for c in columns)
        )
    ]
    return {"holds": not failures, "failures": failures, "tol": tol}


# ---------------------------------------------------------------------------
# derivative-range coverage conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RangeTargets:
    """Grid functions the coverage conditions are built from.

    All grid functions share ``rfe.grid``.  ``abstract_star`` should carry
    truncation-stability flags (+inf where unstable); ``linear_star`` is the
    classical conjugate of the sampled L.
    """

    rfe: RateFunctionEstimate
    abstract_star: GridFunction | None = None
    linear_star: GridFunction | None = None
    lambda_bar_zero: float = 0.0

    def __post_init__(self):
        for gf in (self.abstract_star, self.linear_star):
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
    cid: str,
    filter_tol: float,
) -> dict:
    """Test the derivative-range coverage condition ``cid``.

    The condition asks the range of one-sided slopes of ``L`` restricted
    to open ``G`` to cover a target set of rate-grid points: the effective
    domain of ``l0``, of the abstract conjugate, or the interior of the
    domain of the linear conjugate, optionally filtered by
    ``{l1 > -F(0)}`` (strict, with ``filter_tol`` slack).  Coverage is
    tested up to one local grid cell plus the slope-closure gap; witnesses
    are the uncovered target points.  The interior/convexity variants also
    verify their properness-and-convexity premise numerically and fold it
    into ``holds``.  ``conclusions`` is left empty: what the condition
    implies depends on the LDP verdict, which the caller holds.
    """
    if cid not in _CONDITIONS:
        raise ValueError(f"unknown condition id {cid!r}")
    base, use_filter, use_interior = _CONDITIONS[cid]
    if base == "l0":
        source = targets.rfe.l0
    elif base == "abstract":
        source = targets.abstract_star
    else:
        source = targets.linear_star
    if source is None:
        raise ValueError(f"condition {cid} needs the {base!r} target grid")

    rng = derivative_range(L_on_G, G)
    grid = targets.rfe.grid
    cell = np.empty(grid.shape)
    gaps = np.diff(grid)
    cell[0] = gaps[0]
    cell[-1] = gaps[-1]
    if grid.size > 2:
        cell[1:-1] = np.maximum(gaps[:-1], gaps[1:])
    notes: dict = {"merge_gap": rng.merge_gap, "closure": "slope closure used"}
    premise_ok = True

    mask = np.isfinite(source.values)
    if use_interior and cid.startswith("range-int"):
        # premise: the base function is proper convex (lsc on the grid)
        premise_ok = source.is_proper and is_convex_table(source)
        notes["proper_convex_premise"] = premise_ok
    if use_interior:
        mask = interior_mask(mask)
    if use_filter:
        mask = mask & _l1_filter(targets, filter_tol)

    targets_x = grid[mask]
    uncovered = targets_x[~rng.covers(targets_x, cell[mask] + rng.merge_gap)].tolist()
    notes["target_size"] = int(mask.sum())
    notes["range_components"] = list(rng.components)
    return {
        "holds": bool(not uncovered and premise_ok),
        "witnesses": uncovered,
        "witness_count": len(uncovered),
        "conclusions": [],
        "notes": notes,
    }


# ---------------------------------------------------------------------------
# rate-function equality reports
# ---------------------------------------------------------------------------


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
    return _masked_equality(A.xs, ext_abs_diff(A.values, B.values), mask, tol)


def conjugate_consistency_check(
    family: TiltFamily, table: FamilyTable, linear_star: GridFunction
) -> dict:
    """The abstract conjugate of a linear ``family`` on ``linear_star``'s grid
    against ``linear_star``, the classical conjugate of the same L, within
    :data:`CONJUGATE_TOL`; witnesses are the grid points farther apart."""
    direct = abstract_lf(family, table, linear_star.xs)
    everywhere = np.ones(linear_star.xs.shape, dtype=bool)
    holds, worst, witnesses = equality_on_mask(direct, linear_star, everywhere, CONJUGATE_TOL)
    return {"holds": holds, "max_gap": None if worst == INF else worst, "witnesses": witnesses}


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
    gaps = {
        "J_vs_abstract": ext_abs_diff(J.values, abstract_star.values),
        "J_vs_linear": ext_abs_diff(J.values, Lstar.values),
    }
    checks = []
    for mask_name, mask in masks.items():
        for pair_name, gap in gaps.items():
            holds, worst, witnesses = _masked_equality(J.xs, gap, mask, tol)
            checks.append(
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
    allowed = []
    for pair_name, gap in gaps.items():
        diffs = J.xs[~union & (gap > tol)]
        allowed.append(
            {"comparison": pair_name, "outside_masks": diffs[:8].tolist(), "count": diffs.size}
        )
    return {"holds": all(c["holds"] for c in checks), "checks": checks,
            "allowed_differences": allowed}


# ---------------------------------------------------------------------------
# the sandwich chain
# ---------------------------------------------------------------------------


def sandwich_check(
    linear_star: GridFunction,
    abstract_star: GridFunction,
    rfe: RateFunctionEstimate,
    slack: float,
) -> dict:
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
    return {"holds": worst["violation"] <= slack, "worst": worst, "slack": slack}
