"""Slow reference implementations that the tests check the program against.

Each function is either a direct transcription of a definition (one
log-sum-exp per tilt and measure, one limit classification per member) or a
loop that the program once ran and has since replaced with an array form.
None of them is on the program's path; the tests compare the fast forms with
these.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.special import logsumexp

from ldpkit import free_energy
from ldpkit.extreal import INF, NEG_INF
from ldpkit.free_energy import (
    DEFAULT_DIVERGENCE_THRESHOLD,
    DEFAULT_TOL,
    DIVERGENCE_RUN,
    FamilyTable,
    LimitEstimate,
)
from ldpkit.measures import FiniteSupportMeasure, RegionSet
from ldpkit.tilts import TiltFamily


# ---------------------------------------------------------------------------
# free energies
# ---------------------------------------------------------------------------


def estimate_limit(
    ts: Sequence[float],
    values: Sequence[float],
    tol: float = DEFAULT_TOL,
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
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

    One sample at a time; the test oracle of ``free_energy._WindowSums``.
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


# ---------------------------------------------------------------------------
# region masses
# ---------------------------------------------------------------------------


def log_mass_in(measure: FiniteSupportMeasure, region: RegionSet) -> float:
    return float(measure.log_masses_of([region])[0])


def region_power_mass(measure: FiniteSupportMeasure, region: RegionSet, t: float) -> float:
    """Powered region mass ``mu(region) ** t`` with ``0 ** t = 0``."""
    if t <= 0:
        raise ValueError("t must be positive")
    logm = log_mass_in(measure, region)
    if logm == NEG_INF:
        return 0.0
    return float(np.exp(t * logm))


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
