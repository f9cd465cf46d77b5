"""Slow reference implementations that the tests check the program against.

Each function is either a direct transcription of a definition (one
log-sum-exp per tilt and measure, one limit classification per member) or a
loop that the program once ran and has since replaced with an array form.
None of them is on the program's path; the tests compare the fast forms with
these.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.special import logsumexp

from ldpkit import free_energy
from ldpkit.convex import GridFunction, lf_transform
from ldpkit.extreal import INF, NEG_INF
from ldpkit.free_energy import DIVERGENCE_RUN, FamilyTable, L_from_table, LimitEstimate
from ldpkit.measures import FiniteSupportMeasure, RegionSet, ScaledMeasureNet
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


def estimate_limit(
    ts: Sequence[float],
    values: Sequence[float],
    tol: float = Tolerances.convergence,
    divergence_threshold: float = Tolerances.divergence_threshold,
    divergence_run: int = DIVERGENCE_RUN,
) -> LimitEstimate:
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
        return LimitEstimate(NEG_INF, NEG_INF, NEG_INF, True, 0.0, samples)
    if _diverges(+1.0):
        return LimitEstimate(INF, INF, INF, True, 0.0, samples)
    if _diverges(-1.0):
        return LimitEstimate(NEG_INF, NEG_INF, NEG_INF, True, 0.0, samples)

    lo = float(arr.min())
    hi = float(arr.max())
    spread = hi - lo
    converged = bool(np.isfinite(lo) and np.isfinite(hi) and spread <= tol)
    return LimitEstimate(lo, hi, vals[-1], converged, spread, samples)


def table_from_estimates(estimates: Sequence[LimitEstimate]) -> FamilyTable:
    """The table of ``estimates``, which must be sampled at the same scales."""
    samples = np.array([e.samples for e in estimates], dtype=float)
    fields = ("value", "liminf_est", "limsup_est", "converged", "spread")
    return FamilyTable(
        samples[0, :, 0],
        samples[:, :, 1].T,
        *(np.array([getattr(e, f) for e in estimates]) for f in fields),
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
    return lf_transform(L, x_grid).with_label("linear-restriction-conjugate")


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
