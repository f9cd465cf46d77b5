"""Slow reference implementations that the tests check the program against.

Each function is either a direct transcription of a definition (one
log-sum-exp per tilt and measure, one limit classification per member, the
brute-force conjugate, the convex hull, infima over open regions) or a loop
that the program once ran and has since replaced with an array form.  None
of them is on the program's path; the tests and the acceptance criteria
compare the fast forms with these.  The few builders at the end make test
inputs and read back written reports.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import logsumexp

from ldpkit import free_energy, measures, pipeline
from ldpkit.convex import (
    GridFunction,
    _finite_points,
    _require_proper,
    _runs,
    lf_transform,
    lower_hull_vertices,
)
from ldpkit.extreal import INF, NEG_INF
from ldpkit.free_energy import DIVERGENCE_RUN, FamilyTable, L_from_table
from ldpkit.measures import FiniteSupportMeasure, Interval, RegionSet, ScaledMeasureNet
from ldpkit.scenario import Tolerances
from ldpkit.tilts import TiltFamily
from ldpkit.verifier import RateFunctionEstimate


# ---------------------------------------------------------------------------
# extended reals
# ---------------------------------------------------------------------------


def scalar_ext_abs_diff(a: float, b: float) -> float:
    """|a - b| treating equal infinities as distance 0, mixed as +inf."""
    if a == b:
        # covers inf == inf and -inf == -inf
        return 0.0
    if not math.isfinite(a) or not math.isfinite(b):
        return INF
    return abs(a - b)


def scalar_ext_sub(a: float, b: float) -> float:
    """``a - b`` with equal infinities at difference 0."""
    if a == b:
        return 0.0
    return a - b  # Python floats: an overflow is +-inf, not an error


# ---------------------------------------------------------------------------
# free energies
# ---------------------------------------------------------------------------


class Estimate(NamedTuple):
    """One member's limit estimate: a column of a ``FamilyTable`` with its
    ``(t, value)`` samples."""

    liminf: float
    limsup: float
    value: float
    converged: bool
    spread: float
    samples: tuple[tuple[float, float], ...]


def estimate_limit(
    ts: Sequence[float],
    values: Sequence[float],
    tol: float = Tolerances.convergence,
    divergence_threshold: float = Tolerances.divergence_threshold,
    divergence_run: int = DIVERGENCE_RUN,
) -> Estimate:
    """Classify a sampled tail of a scalar net, as ``lambda_family_table``
    classifies each member's column (see ``ldpkit.free_energy``)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    vals = [float(v) for v in values]
    samples = tuple(zip([float(t) for t in ts], vals))
    arr = np.array(vals, dtype=float)

    def _diverges(sign: float) -> bool:
        v = sign * arr
        if v[-1] <= divergence_threshold and not np.isposinf(v[-1]):
            return False
        run = min(divergence_run, len(v))
        tail = v[-run:]
        with np.errstate(invalid="ignore"):  # inf - inf steps
            steps = np.diff(tail)
        return bool(np.all(steps > 0)) or bool(np.all(np.isposinf(tail)))

    if np.all(np.isneginf(arr)):
        return Estimate(NEG_INF, NEG_INF, NEG_INF, True, 0.0, samples)
    if _diverges(+1.0):
        return Estimate(INF, INF, INF, True, 0.0, samples)
    if _diverges(-1.0):
        return Estimate(NEG_INF, NEG_INF, NEG_INF, True, 0.0, samples)

    lo = float(arr.min())
    hi = float(arr.max())
    spread = hi - lo
    converged = bool(np.isfinite(lo) and np.isfinite(hi) and spread <= tol)
    return Estimate(lo, hi, vals[-1], converged, spread, samples)


TABLE_FIELDS = ("value", "liminf", "limsup", "converged", "spread")


def table_from_estimates(estimates: Sequence[Estimate]) -> FamilyTable:
    """The table of ``estimates``, which must be sampled at the same scales."""
    samples = np.array([e.samples for e in estimates], dtype=float)
    return FamilyTable(
        samples[0, :, 0],
        samples[:, :, 1].T,
        *(np.array([getattr(e, f) for e in estimates]) for f in TABLE_FIELDS),
    )


def column_bits(table: FamilyTable, cols=slice(None)) -> tuple[bytes, ...]:
    """The bits of ``table``'s scales and of its members ``cols``, array by
    array: two tables agree bit for bit, NaN and signed zeros included,
    when these are equal."""
    return (
        table.ts.tobytes(),
        table.rows[:, cols].tobytes(),
        *(getattr(table, f)[cols].tobytes() for f in TABLE_FIELDS),
    )


def exp_power_integral(measure: FiniteSupportMeasure, tilt, t: float) -> float:
    """Scaled log-integral ``t * log( sum_i m_i exp(h(x_i)/t) )``.

    Evaluated by shifting out the maximal exponent (log-sum-exp), so the
    result never overflows even for exponents of size 1e8.  Returns ``-inf``
    for the zero measure or when the tilt is -inf on the whole support.

    Parameters
    ----------
    measure : FiniteSupportMeasure
    tilt : TiltFunction
        Any object with an ``eval_array`` method mapping locations to
        values in [-inf, +inf).
    t : float
        Scale, must be positive.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if measure.locations.size == 0:
        return NEG_INF
    h = tilt.eval_array(measure.locations)
    expo = measure.log_masses + h / t
    val = float(logsumexp(expo))
    if val == NEG_INF:
        return NEG_INF
    return t * val


def slope_log_sums(
    slopes: np.ndarray, locs: np.ndarray, logm: np.ndarray, t: float
) -> np.ndarray:
    """``log sum_i exp(logm_i + s * locs_i / t)`` for every slope ``s``.

    One sample at a time; the test oracle of ``free_energy.Window``.
    """
    out = np.empty(slopes.size)
    step = max(1, free_energy._BLOCK_TERMS // max(1, locs.size))
    for i in range(0, slopes.size, step):
        s = slopes[i : i + step, None]
        out[i : i + step] = free_energy._log_sum_exp_rows(logm + s * locs / t)
    return out


def custom_log_sums(members, measure: FiniteSupportMeasure, t: float) -> np.ndarray:
    """``log sum_i exp(logm_i + h(x_i) / t)`` of each custom member ``h`` over
    one measure's atoms, as ``free_energy.Window.custom_sums`` builds the
    exponents: the one-pass oracle of a window's custom sums."""
    x = np.array([m.eval_array(measure.locations) / t + measure.log_masses for m in members])
    return free_energy._log_sum_exp_rows(x)


def values_at(family: TiltFamily, xs) -> np.ndarray:
    """``h(x)`` for every member (rows) and point of ``xs`` (columns)."""
    xs = np.asarray(xs, dtype=float)
    out = np.where(xs <= 0.0, family.lam[:, None] * xs, family.nu[:, None] * xs)
    for i, member in zip(np.flatnonzero(np.isnan(family.lam)), family.custom):
        out[i] = member.eval_array(xs)
    return out


def index_range_for_t(net: ScaledMeasureNet, t_max: float, t_min: float) -> tuple[int, int]:
    """``ScaledMeasureNet.index_range_for_t`` by two hand-written bisections."""
    if not (0 < t_min < t_max):
        raise ValueError("need 0 < t_min < t_max")
    lo, hi = 1, net.max_index
    if net.t(1) <= t_max:
        start = 1
    else:
        while lo + 1 < hi:  # first k with t(k) <= t_max
            mid = (lo + hi) // 2
            if net.t(mid) <= t_max:
                hi = mid
            else:
                lo = mid
        start = hi
    lo, hi = 1, net.max_index
    if net.t(net.max_index) >= t_min:
        end = net.max_index
    else:
        while lo + 1 < hi:  # last k with t(k) >= t_min
            mid = (lo + hi) // 2
            if net.t(mid) >= t_min:
                lo = mid
            else:
                hi = mid
        end = lo
    if start >= end:
        raise ValueError("t-range selects fewer than two indices")
    return start, end


# ---------------------------------------------------------------------------
# conjugates and derivatives
# ---------------------------------------------------------------------------


def brute_force_conjugate(f: GridFunction, dual_grid: Sequence[float]) -> GridFunction:
    """O(n*m) conjugate: the direct sup over the finite grid points at each
    dual point; the oracle of ``lf_transform``."""
    _require_proper(f)
    dual = np.asarray(dual_grid, dtype=float)
    xs, vs = _finite_points(f)
    return GridFunction(dual, (dual[:, None] * xs - vs).max(axis=1))


def convex_lsc_hull(f: GridFunction) -> GridFunction:
    """Greatest convex minorant of the grid function, +inf off its domain;
    the biconjugate of Fenchel-Moreau.

    Lower semicontinuity at the effective-domain endpoints holds by
    construction for the piecewise-linear extension: the endpoint values are
    hull vertices, so they equal the limit from inside.
    """
    hx, hv = lower_hull_vertices(f)
    out = np.full_like(f.values, INF)
    inside = (f.xs >= hx[0]) & (f.xs <= hx[-1])
    out[inside] = np.interp(f.xs[inside], hx, hv) if hx.size > 1 else hv[0]
    return GridFunction(f.xs, out)


def linear_restriction_conjugate(
    family: TiltFamily, table: FamilyTable, x_grid: Sequence[float]
) -> GridFunction:
    """Classical conjugate of the sampled free energy of a linear family.

    Builds the grid function ``lam -> F(h_lam)`` (+inf where the estimate
    diverged) and applies ``lf_transform``; the cross-check path against
    ``abstract_lf`` on the same family.
    """
    L = L_from_table(family, table)
    if not table.converged.all():
        raise ValueError("family has members with no converged free energy")
    return lf_transform(L, x_grid)


def one_sided_derivatives(f: GridFunction, at: int) -> tuple[float, float]:
    """Finite-difference one-sided slopes at a grid index with finite value.

    The left slope is ``-inf`` at the left edge of the effective domain (the
    off-grid +inf convention) and symmetrically ``+inf`` on the right.
    """
    if not (0 <= at < f.xs.size):
        raise IndexError(f"index {at} out of range")
    v = f.values[at]
    if not np.isfinite(v):
        raise ValueError(f"value at index {at} is not finite")
    if at == 0 or np.isposinf(f.values[at - 1]):
        left = NEG_INF
    else:
        left = float((v - f.values[at - 1]) / (f.xs[at] - f.xs[at - 1]))
    if at == f.xs.size - 1 or np.isposinf(f.values[at + 1]):
        right = INF
    else:
        right = float((f.values[at + 1] - v) / (f.xs[at + 1] - f.xs[at]))
    return left, right


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


def derivative_bound_scan(L: GridFunction, rfe: RateFunctionEstimate, tol: float) -> dict:
    """``verifier.derivative_bound_scan`` point by point."""
    reports = []
    ok = True
    for i in range(L.xs.size):
        if not np.isfinite(L.values[i]):
            continue
        holds, details = derivative_bound_check(L, rfe, i, tol)
        ok = ok and holds
        if not holds:
            reports.append(details)
    return {"holds": ok, "failures": reports, "tol": tol}


# ---------------------------------------------------------------------------
# region masses
# ---------------------------------------------------------------------------


def intersect(a: RegionSet, b: RegionSet) -> RegionSet:
    """The intersection of two regions, one interval per pair of their
    intervals that meet.  Of two ends at one point, the open one bounds it."""
    pieces = []
    for x in a.intervals:
        for y in b.intervals:
            lo, lo_open = max((x.lo, x.lo_open), (y.lo, y.lo_open))
            hi, hi_closed = min((x.hi, not x.hi_open), (y.hi, not y.hi_open))
            if lo < hi or (lo == hi and hi_closed and not lo_open):
                pieces.append(Interval(lo, hi, lo_open, not hi_closed))
    return RegionSet(tuple(pieces))


def inf_over_open(f: GridFunction, region: RegionSet) -> float:
    """Infimum of the piecewise-linear extension of ``f`` over a region.

    Uses the continuity of the extension on its domain: open interval ends
    contribute their limits, single touch points only count when the region
    actually contains them.  ``inf over the empty set = +inf``.
    """
    xs, vs = _finite_points(f)
    if xs.size == 0:
        return INF
    a, b = float(xs[0]), float(xs[-1])

    def interp(x: float) -> float:
        return float(np.interp(x, xs, vs))

    best = INF
    for iv in region.intervals:
        lo_eff = max(iv.lo, a)
        hi_eff = min(iv.hi, b)
        if lo_eff > hi_eff:
            continue
        if lo_eff == hi_eff:
            if iv.mask(lo_eff):
                best = min(best, interp(lo_eff))
            continue
        best = min(best, interp(lo_eff), interp(hi_eff))
        i0 = int(np.searchsorted(xs, lo_eff, side="right"))
        i1 = int(np.searchsorted(xs, hi_eff, side="left"))
        if i1 > i0:
            best = min(best, float(vs[i0:i1].min()))
    return best


def conv_lemma_check(
    f: GridFunction, region: RegionSet, tol: float = 1e-9
) -> tuple[bool, float, float]:
    """Check inf over G == inf over G intersected with int dom(f).

    Valid for proper convex lsc grid functions whose domain has nonempty
    interior and open regions G; both infima are returned.
    """
    int_dom = RegionSet(tuple(
        Interval(float(f.xs[i]), float(f.xs[j]), True, True)
        for i, j in _runs(f.finite_mask).tolist() if j > i
    ))
    lhs = inf_over_open(f, region)
    rhs = inf_over_open(f, intersect(region, int_dom))
    return scalar_ext_abs_diff(lhs, rhs) <= tol, lhs, rhs


def log_masses_of(measure: FiniteSupportMeasure, regions: Sequence[RegionSet]) -> np.ndarray:
    """log of the mass of each region under one measure, as the program once
    read them: one ``log_masses_in`` call, then ``np.logaddexp.reduce`` over
    each region's intervals, in order."""
    ivs = [iv for region in regions for iv in region.intervals]
    logm = measure.log_masses_in(
        *([getattr(iv, f) for iv in ivs] for f in ("lo", "hi", "lo_open", "hi_open"))
    )
    ends = np.cumsum([0] + [len(region.intervals) for region in regions]).tolist()
    # an empty region reduces to logaddexp's identity, -inf
    return np.array([np.logaddexp.reduce(logm[a:b]) for a, b in zip(ends, ends[1:])])


def log_mass_in(measure: FiniteSupportMeasure, region: RegionSet) -> float:
    return float(log_masses_of(measure, [region])[0])


def sparse_table(measure: FiniteSupportMeasure) -> np.ndarray:
    """Log-space disjoint sparse table over the atoms of ``measure``.

    Row 0 holds the log-masses.  Row ``l + 1`` cuts the atoms into blocks
    of ``2**(l + 1)`` and holds, left of each block's midpoint, the log-mass
    of the atoms from there up to the midpoint, and right of it, the
    log-mass from the midpoint up to there: one ``np.logaddexp.accumulate``
    per level over the left halves reversed.  Column n is ``-inf``.
    """
    n = measure.log_masses.size
    levels = max(n - 1, 0).bit_length()
    table = np.full((levels + 1, n + 1), NEG_INF)
    table[0, :n] = measure.log_masses
    for level in range(levels):
        half = 1 << level
        padded = np.full(-(-n // (2 * half)) * 2 * half, NEG_INF)
        padded[:n] = measure.log_masses
        blocks = padded.reshape(-1, 2, half)
        blocks[:, 0] = blocks[:, 0, ::-1].copy()
        blocks = np.logaddexp.accumulate(blocks, axis=-1)
        blocks[:, 0] = blocks[:, 0, ::-1].copy()
        table[level + 1, :n] = blocks.reshape(-1)[:n]
    return table


def sparse_table_log_masses_in(
    measure: FiniteSupportMeasure, lo, hi, lo_open=True, hi_open=True
) -> np.ndarray:
    """``FiniteSupportMeasure.log_masses_in`` read from the whole
    :func:`sparse_table`, as the program once did: a run ``[i0, i1)`` of two
    or more atoms is the ``logaddexp`` of two entries of row
    ``bit_length(i0 ^ (i1-1))``, a single atom pairs with the ``-inf``
    column, as does an empty run."""
    lo, hi, lo_open, hi_open = np.broadcast_arrays(
        np.asarray(lo, dtype=float), np.asarray(hi, dtype=float), lo_open, hi_open
    )
    find = lambda x, side: np.searchsorted(measure.locations, x, side)
    i0 = np.where(lo_open, find(lo, "right"), find(lo, "left"))
    i1 = np.where(hi_open, find(hi, "left"), find(hi, "right"))
    n, size = measure.log_masses.size, i1 - i0
    row = np.frexp(np.where(size > 1, i0 ^ (i1 - 1), 0))[1]
    table = sparse_table(measure)
    return np.logaddexp(
        table[row, np.where(size > 0, i0, n)], table[row, np.where(size > 1, i1 - 1, n)]
    )


def region_power_mass(measure: FiniteSupportMeasure, region: RegionSet, t: float) -> float:
    """Powered region mass ``mu(region) ** t`` with ``0 ** t = 0``."""
    if t <= 0:
        raise ValueError("t must be positive")
    logm = log_mass_in(measure, region)
    if logm == NEG_INF:
        return 0.0
    return float(np.exp(t * logm))


def window_samples(net: ScaledMeasureNet, window) -> list[tuple[FiniteSupportMeasure, float]]:
    """``(measure_k, t_k)`` of every index ``k`` the window samples."""
    return [(net.measure(int(k)), net.t(int(k))) for k in window.indices(net)]


# ---------------------------------------------------------------------------
# runs of a boolean mask
# ---------------------------------------------------------------------------


def finite_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs [i, j] of consecutive True entries (inclusive)."""
    runs = []
    i = 0
    n = mask.size
    while i < n:
        if mask[i]:
            j = i
            while j + 1 < n and mask[j + 1]:
                j += 1
            runs.append((i, j))
            i = j + 1
        else:
            i += 1
    return runs


def interior_mask(mask: np.ndarray) -> np.ndarray:
    """Drop the first and last index of every True-run."""
    out = mask.copy()
    n = mask.size
    i = 0
    while i < n:
        if mask[i]:
            j = i
            while j + 1 < n and mask[j + 1]:
                j += 1
            out[i] = False
            out[j] = False
            i = j + 1
        else:
            i += 1
    return out


# ---------------------------------------------------------------------------
# test inputs and written reports
# ---------------------------------------------------------------------------


def from_log_atoms(atoms) -> FiniteSupportMeasure:
    """A measure of ``(location, log_mass)`` pairs, sorted and merged as
    ``FiniteSupportMeasure.from_atoms`` merges its pairs."""
    locs, logm = np.array(list(atoms), dtype=float).reshape(-1, 2).T
    return FiniteSupportMeasure(*measures._merge_atoms(locs, logm))


def bernoulli_half() -> FiniteSupportMeasure:
    """The fair base on {0, 1}."""
    return FiniteSupportMeasure.from_atoms([(0.0, 0.5), (1.0, 0.5)])


def written_report(tree: dict) -> dict:
    """A report tree as its JSON file reads back: the writer's text, parsed
    (lists, and +-inf as ``"inf"`` / ``"-inf"``)."""
    return json.loads("".join(pipeline._json_pieces(tree, text=pipeline._ArrayText())))
