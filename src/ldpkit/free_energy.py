"""Free-energy (scaled log-moment) estimation along a net.

For a tilt ``h`` the net of scaled log-integrals
``v_k = t_k * log( integral exp(h/t_k) d mu_k )`` has a log-liminf and a
log-limsup; when the two coincide the common value is the free energy of
``h``.  This module estimates those limits from a finite tail window of the
net:

* the window is a geometric subsample of indices (a cofinal subsequence),
* ``liminf``/``limsup`` are estimated by the min/max of the sampled values,
* the sample at the finest index is kept as the representative ``value``,
* a monotone run of samples blowing past a divergence threshold is
  classified as the limit ``+inf`` (and symmetrically ``-inf``).

The estimators never average: a window whose min/max bracket is wider than
the requested tolerance is flagged as not converged.

One kernel evaluates every tilt: a member with slopes ``(lam, nu)`` (a
linear tilt has ``lam == nu``) gives ``t * logaddexp(A(lam), B(nu))``, with
``A`` and ``B`` the log-sums over the atoms at ``x <= 0`` and ``x > 0``,
each taken once per distinct slope.  Custom members are summed row by row.
A family's estimates come back as one :class:`FamilyTable` of arrays; a
per-member :class:`LimitEstimate` is built only on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .convex import GridFunction
from .extreal import INF, NEG_INF
from .measures import ScaledMeasureNet
from .tilts import TiltFamily, TiltFunction, explicit_family, linear_family

DEFAULT_TOL = 1e-6
DEFAULT_DIVERGENCE_THRESHOLD = 1e12
DIVERGENCE_RUN = 5
# Slope x atom terms per logsumexp block; rows stay whole, so the sums do
# not depend on it.  From 2^17 up, a block's float64 temporaries (1 MB and
# more) went back to the OS and were page-faulted afresh on every block:
# cramer's `run` took about 24,000 minor faults per op and its family tables
# 0.12 s, against under 750 faults and 0.066-0.074 s at 2^13-2^16.
_BLOCK_TERMS = 1 << 15


@dataclass(frozen=True)
class WindowSpec:
    """Tail window of a net: index range plus a geometric sample budget."""

    start_index: int
    end_index: int
    max_samples: int = 48

    def __post_init__(self):
        if self.start_index < 1:
            raise ValueError("start_index must be at least 1")
        if self.start_index >= self.end_index:
            raise ValueError("window needs start_index < end_index")
        if self.max_samples < 2:
            raise ValueError("max_samples must be at least 2")

    def indices(self, net: ScaledMeasureNet) -> np.ndarray:
        if self.end_index > net.max_index:
            raise ValueError(
                f"window end {self.end_index} outside the net's range "
                f"[1, {net.max_index}]"
            )
        count = min(self.max_samples, self.end_index - self.start_index + 1)
        ks = np.geomspace(self.start_index, self.end_index, count)
        return np.unique(np.round(ks).astype(int))


def window_for_t_range(
    net: ScaledMeasureNet, t_max: float, t_min: float, max_samples: int = 48
) -> WindowSpec:
    """Window covering the indices with t in [t_min, t_max]."""
    start, end = net.index_range_for_t(t_max, t_min)
    return WindowSpec(start, end, max_samples)


@dataclass(frozen=True)
class LimitEstimate:
    """Bracketed limit of a scalar net.

    ``liminf_est``/``limsup_est`` are the min/max over the sampled window,
    ``value`` is the sample at the finest index (the best single estimate),
    and ``converged`` means the bracket is tighter than the tolerance used,
    or both ends are the same infinity.
    """

    liminf_est: float
    limsup_est: float
    value: float
    converged: bool
    spread: float
    samples: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.liminf_est > self.limsup_est:
            raise ValueError("liminf_est must not exceed limsup_est")


def estimate_limit(
    ts: Sequence[float],
    values: Sequence[float],
    tol: float = DEFAULT_TOL,
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
    divergence_run: int = DIVERGENCE_RUN,
) -> LimitEstimate:
    """Classify a sampled tail of a scalar net (see module docstring)."""
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
        with np.errstate(invalid="ignore"):  # inf - inf steps, as in _classify_limits
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


@dataclass(frozen=True)
class FamilyTable:
    """Free-energy estimates of every member of a family, as arrays.

    ``rows[j, i]`` is member ``i``'s scaled log-integral at the window scale
    ``ts[j]``.  ``value``, ``liminf``, ``limsup``, ``converged`` and
    ``spread`` hold, one entry per member, the fields of its
    :class:`LimitEstimate`, which :meth:`estimate` builds on request.  The
    arrays are made read-only.
    """

    ts: np.ndarray
    rows: np.ndarray
    value: np.ndarray
    liminf: np.ndarray
    limsup: np.ndarray
    converged: np.ndarray
    spread: np.ndarray

    def __post_init__(self):
        if np.any(self.liminf > self.limsup):
            raise ValueError("liminf_est must not exceed limsup_est")
        for arr in vars(self).values():
            arr.flags.writeable = False

    def __len__(self) -> int:
        return self.value.size

    def estimate(self, i: int) -> LimitEstimate:
        """Member ``i``'s estimate, samples included."""
        return LimitEstimate(
            self.liminf[i].item(),
            self.limsup[i].item(),
            self.value[i].item(),
            bool(self.converged[i]),
            self.spread[i].item(),
            tuple(zip(self.ts.tolist(), self.rows[:, i].tolist())),
        )

    @classmethod
    def from_estimates(cls, estimates: Sequence[LimitEstimate]) -> "FamilyTable":
        """The table of ``estimates``, which must be sampled at the same scales."""
        samples = np.array([e.samples for e in estimates], dtype=float)
        if samples.ndim != 3 or np.any(samples[:, :, 0] != samples[:1, :, 0]):
            raise ValueError("estimates must share their sample scales")
        fields = ("value", "liminf_est", "limsup_est", "converged", "spread")
        return cls(
            samples[0, :, 0],
            samples[:, :, 1].T,
            *(np.array([getattr(e, f) for e in estimates]) for f in fields),
        )


def lambda_of(
    net: ScaledMeasureNet,
    tilt: TiltFunction,
    window: WindowSpec,
    tol: float = DEFAULT_TOL,
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
) -> LimitEstimate:
    """Estimate the free energy of a single tilt along the net."""
    family = explicit_family([tilt])
    return lambda_family_table(net, family, window, tol, divergence_threshold).estimate(0)


def _log_sum_exp_rows(x: np.ndarray) -> np.ndarray:
    """``log sum exp`` of every row, by the algorithm of scipy's ``logsumexp``.

    The largest term stays out of the sum and returns through ``log1p``, so
    terms far below it keep their digits.  scipy's fixed cost per call (about
    0.1 ms) would dominate the few-atom sums made once per window sample.
    """
    if x.shape[1] == 0:
        return np.full(x.shape[0], NEG_INF)
    rows = np.arange(x.shape[0])
    top = x.argmax(axis=1)
    peak = x[rows, top]
    with np.errstate(invalid="ignore"):
        terms = np.exp(x - np.where(np.isfinite(peak), peak, 0.0)[:, None])
    terms[rows, top] = 0.0
    return peak + np.log1p(terms.sum(axis=1))


def _slope_log_sums(
    slopes: np.ndarray, locs: np.ndarray, logm: np.ndarray, t: float
) -> np.ndarray:
    """``log sum_i exp(logm_i + s * locs_i / t)`` for every slope ``s``."""
    out = np.empty(slopes.size)
    step = max(1, _BLOCK_TERMS // max(1, locs.size))
    for i in range(0, slopes.size, step):
        s = slopes[i : i + step, None]
        out[i : i + step] = _log_sum_exp_rows(logm + s * locs / t)
    return out


def _classify_limits(
    ts: np.ndarray, rows: np.ndarray, tol: float, divergence_threshold: float
) -> FamilyTable:
    """:func:`estimate_limit` on every column of a samples x members table."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    last = rows[-1]
    tail = rows[-min(DIVERGENCE_RUN, len(rows)) :]
    with np.errstate(invalid="ignore"):
        steps = np.diff(tail, axis=0)
        lo = rows.min(axis=0)
        hi = rows.max(axis=0)
        spread = hi - lo
    # an all -inf column is caught by ``down``
    up = (last > divergence_threshold) & (
        np.all(steps > 0, axis=0) | np.all(np.isposinf(tail), axis=0)
    )
    down = (last < -divergence_threshold) & (
        np.all(steps < 0, axis=0) | np.all(np.isneginf(tail), axis=0)
    )
    diverged = up | down
    converged = diverged | (np.isfinite(lo) & np.isfinite(hi) & (spread <= tol))
    limit = np.where(up, INF, NEG_INF)
    return FamilyTable(
        ts=ts,
        rows=rows,
        value=np.where(diverged, limit, last),
        liminf=np.where(diverged, limit, lo),
        limsup=np.where(diverged, limit, hi),
        converged=converged,
        spread=np.where(diverged, 0.0, spread),
    )


def lambda_family_table(
    net: ScaledMeasureNet,
    family: TiltFamily,
    window: WindowSpec,
    tol: float = DEFAULT_TOL,
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
) -> FamilyTable:
    """Free-energy estimates for every member of a family.

    Agrees with :func:`~ldpkit.measures.exp_power_integral` and
    :func:`estimate_limit` applied member by member, up to the rounding of
    the split log-sum (see the module docstring).
    """
    ks = window.indices(net)
    ts = np.array([net.t(int(k)) for k in ks])
    lam, nu = family.slope_pairs()
    sloped = ~np.isnan(lam)
    lam_axis, lam_at = np.unique(lam[sloped], return_inverse=True)
    nu_axis, nu_at = np.unique(nu[sloped], return_inverse=True)
    custom = family.custom
    rows = np.empty((ks.size, lam.size))
    for row, k, t in zip(rows, ks, ts):
        m = net.measure(int(k))
        locs, logm = m.locations, m.log_masses
        left = locs <= 0.0
        a = _slope_log_sums(lam_axis, locs[left], logm[left], t)
        b = _slope_log_sums(nu_axis, locs[~left], logm[~left], t)
        row[sloped] = t * np.logaddexp(a[lam_at], b[nu_at])
        if custom:
            h = np.array([member.eval_array(locs) for member in custom])
            row[~sloped] = t * _log_sum_exp_rows(logm + h / t)
    return _classify_limits(ts, rows, tol, divergence_threshold)


def L_grid(
    net: ScaledMeasureNet,
    G: tuple[float, float],
    resolution: int,
    window: WindowSpec,
    tol: float = DEFAULT_TOL,
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
    label: str = "L",
) -> GridFunction:
    """Sample the free energy of linear tilts on a grid inside open G.

    The returned grid function carries the representative values; per-point
    convergence flags and the liminf/limsup brackets are stored in ``meta``.
    Diverging entries are recorded as ``+inf``.
    """
    family = linear_family(G[0], G[1], resolution)
    table = lambda_family_table(net, family, window, tol, divergence_threshold)
    meta = {
        "converged": table.converged.tolist(),
        "liminf": table.liminf.tolist(),
        "limsup": table.limsup.tolist(),
        "window": (window.start_index, window.end_index, window.max_samples),
        "tol": tol,
    }
    return GridFunction(family.lam, table.value, label=label, meta=meta)
