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
``A`` and ``B`` the log-sums over the atoms at ``x <= 0`` and ``x > 0``.
A net holds one :class:`Window` per window spec, which lives as long as the
net: a slope is summed once per side, and every later table over the
window (a family, its doubling, the linear grids, single tilts) reads it,
as do the rate grid and the set-wise checks.
Window samples with the same atom count on a side are summed together, in
blocks of whole ``slopes x samples`` rows.  At small ``t`` most terms lie
more than 745 below their row's largest; the row kernel leaves them at the
exact 0.0 that ``exp`` would return, without calling it, as the table's
``logaddexp(A, B)`` does with pairs more than 746 apart.  On a concave side
(3 or more atoms whose chord slopes strictly decrease, as in every binomial
law) a slope's terms are unimodal, and those within 746 of the peak form
one run: only the run is computed, and its terms are summed at their own
columns of a full-width row of 0.0, so the pairwise ``sum`` adds as over
the whole row and every bit stays.  Any other side keeps whole rows.  A
custom member is evaluated once per table, on the atoms of all window
samples together, so its callable must be elementwise.  A family's estimates come back as one
:class:`FamilyTable` of arrays; a per-member :class:`LimitEstimate` is
built only on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .convex import GridFunction
from .extreal import INF, NEG_INF
from .measures import ScaledMeasureNet, log_masses_in
from .scenario import WINDOW_SAMPLES, Tolerances
from .tilts import TiltFamily, TiltFunction, explicit_family

DIVERGENCE_RUN = 5
# Slope x atom terms per logsumexp block; rows stay whole, so the sums do
# not depend on it.  From 2^17 up, a block's float64 temporaries (1 MB and
# more) went back to the OS and were page-faulted afresh on every block:
# cramer's `run` took about 24,000 minor faults per op and its family tables
# 0.12 s, against under 750 faults and 0.066-0.074 s at 2^13-2^16.
_BLOCK_TERMS = 1 << 15
# Below this shifted exponent ``exp`` returns exactly 0.0, so the kernel does
# not call it there.  exp(-745.13) = 5e-324 is the last nonzero double, and
# the subnormal band [-745.13, -708.4] is still computed.  numpy 2.4's exp
# took about 1 ns per element in range, 110-180 ns in the subnormal band and
# 5-17 ns below it, where it returns 0.0 (2-vCPU x86-64 VM).  At small t most
# of cramer's terms lie below the band.
_EXP_ZERO = -746.0
# Atoms between the coarse samples that bound a concave row's run.
_RUN_COARSE = 32
# A concave row sums only its run while its exponents stay below this in
# magnitude: |s| max|x| / t from the tilt plus atoms * max|logm| for the
# chord slopes' rounding.  Each then lies within 2**-5 of a unimodal row.
_RUN_REACH = 2.0 ** 44


class NotConverged(ValueError):
    """A free energy that a computation needs as a limit did not converge."""


@dataclass(frozen=True)
class WindowSpec:
    """Tail window of a net: index range plus a geometric sample budget."""

    start_index: int
    end_index: int
    max_samples: int = WINDOW_SAMPLES

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
    net: ScaledMeasureNet, t_max: float, t_min: float, max_samples: int = WINDOW_SAMPLES
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


def lambda_of(
    net: ScaledMeasureNet,
    tilt: TiltFunction,
    window: WindowSpec,
    tol: float = Tolerances.convergence,
    divergence_threshold: float = Tolerances.divergence_threshold,
) -> LimitEstimate:
    """Estimate the free energy of a single tilt along the net."""
    family = explicit_family([tilt])
    return lambda_family_table(net, family, window, tol, divergence_threshold).estimate(0)


def _log_sum_exp_rows(x: np.ndarray, zeros: np.ndarray | None = None, at: int = 0) -> np.ndarray:
    """``log sum exp`` of every row, with one largest term shifted out.

    The first largest term of a row stays out of the sum and returns through
    ``log1p``, so terms far below it keep their digits.  ``exp`` runs only on
    the shifted terms not below ``_EXP_ZERO``; the others hold the exact 0.0
    that ``exp`` would give them, so every sum is bit for bit that of an
    unmasked ``exp``, without ``exp``'s slow path for such arguments.  The
    terms are shifted and exponentiated in ``x`` itself, which is overwritten.

    ``zeros``, if given, is all 0.0, one row per row of ``x``, as wide as
    the whole rows of which ``x`` holds the columns from ``at`` on; every
    term left out must lie below its row's largest by more than
    ``-_EXP_ZERO``.  The shifted terms are summed at their own columns of
    ``zeros``, between the 0.0 the left-out terms would give, so the
    pairwise ``sum`` adds as over the whole rows, bit for bit; ``zeros``
    is reset to 0.0 after.

    This is not scipy's ``logsumexp`` bit for bit: scipy >= 1.15 takes
    every tied maximum out of the sum and adds ``log(m)`` for ``m`` ties, and
    scipy 1.13 shifts by the maximum without ``log1p`` at all, so results can
    differ in the last bits, most often where maxima tie.  scipy's fixed cost
    per call (about 0.1 ms) would dominate the sums over few-atom measures.
    """
    if x.shape[1] == 0:
        return np.full(x.shape[0], NEG_INF)
    rows = np.arange(x.shape[0])
    top = x.argmax(axis=1)
    peak = x[rows, top]
    with np.errstate(invalid="ignore"):
        x -= np.where(np.isfinite(peak), peak, 0.0)[:, None]
        dead = x < _EXP_ZERO  # not >=: NaN terms must still reach exp and give NaN
        np.exp(x, out=x, where=~dead)
    x[dead] = 0.0
    x[rows, top] = 0.0
    if zeros is None:
        return peak + np.log1p(x.sum(axis=1))
    cols = slice(at, at + x.shape[1])
    zeros[:, cols] = x
    total = zeros.sum(axis=1)
    zeros[:, cols] = 0.0
    return peak + np.log1p(total)


def _logaddexp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.logaddexp(a, b)`` bit for bit, without its warnings.  Where
    ``|a - b| > -_EXP_ZERO`` the smaller side's ``exp`` is exactly 0.0, so the
    sum is the larger side plus 0.0; ``np.logaddexp`` runs on the other pairs."""
    with np.errstate(invalid="ignore", over="ignore"):
        near = ~(np.abs(a - b) > -_EXP_ZERO)  # not <=: NaN gaps are near
        return np.logaddexp(a, b, out=np.maximum(a, b) + 0.0, where=near)


def _group_log_sums(count, ts, logm, tilt) -> np.ndarray:
    """``log sum_i exp(logm[j, i] + h / ts[j])`` for ``count`` tilts, ``(count, samples)``.

    ``logm`` is ``(samples, atoms)`` and ``tilt(ii, jj)`` gives the tilt
    values ``h`` of tilts ``ii`` at the atoms of samples ``jj``, shape
    ``(tilts, samples, atoms)``, as a new array: the exponents are built in
    it in place, in the order of ``logm + h / t``, so the sums keep their
    bits, and the row kernel then overwrites it.  Each block sums whole rows
    of about ``_BLOCK_TERMS`` terms, so every sum equals its one-sample
    kernel's.  Custom tilts and the slopes of a side that is not concave
    take this path; a concave side sums runs (:func:`_slope_log_sums`).
    """
    samples, atoms = logm.shape
    out = np.full((count, samples), NEG_INF)
    if atoms == 0:
        return out
    per = max(1, _BLOCK_TERMS // atoms)  # samples per block
    for j in range(0, samples, per):
        jj = slice(j, j + per)
        width = logm[jj].shape[0]
        step = max(1, per // width)  # tilts per block
        for i in range(0, count, step):
            ii = slice(i, i + step)
            x = tilt(ii, jj)
            x /= ts[jj, None]
            x += logm[jj]
            out[ii, jj] = _log_sum_exp_rows(x.reshape(-1, atoms)).reshape(-1, width)
    return out


def _slope_log_sums(slopes: np.ndarray, ts, locs, logm) -> np.ndarray:
    """``log sum_i exp(logm[j, i] + s * locs[j, i] / ts[j])``, ``(slopes, samples)``.

    A sample is concave when it has 3 or more atoms and the chord slopes of
    ``(locs, logm)`` strictly decrease, as in every binomial law.  There the
    exponents of each slope are unimodal in ``i``, and :func:`_run_log_sums`
    sums only the run of them near the peak, while every exponent stays
    below ``_RUN_REACH``.  Every other sample keeps the whole rows of
    :func:`_group_log_sums`, and their warnings.
    """
    samples, atoms = logm.shape
    out = np.empty((slopes.size, samples))
    runs = np.zeros(samples, dtype=bool)
    if atoms >= 3:
        with np.errstate(all="ignore"):  # a sample that overflows here keeps whole rows
            rise = -np.diff(logm, axis=1) / np.diff(locs, axis=1)  # minus the chord slopes
            reach = np.abs(slopes).max() * (np.abs(locs).max(axis=1) / ts)
            reach += atoms * np.abs(logm).max(axis=1)
            runs = np.isfinite(rise).all(axis=1) & (np.diff(rise, axis=1) > 0).all(axis=1)
            runs &= reach < _RUN_REACH
    whole = np.flatnonzero(~runs)
    if whole.size:
        sub = locs[whole]
        out[:, whole] = _group_log_sums(
            slopes.size, ts[whole], logm[whole], lambda ii, jj: slopes[ii, None, None] * sub[jj]
        )
    for j in np.flatnonzero(runs).tolist():
        out[:, j] = _run_log_sums(slopes, ts[j], locs[j], logm[j], rise[j])
    return out


def _run_log_sums(slopes, t, locs, logm, rise) -> np.ndarray:
    """The log-sums of one concave sample, each over the run of its terms
    that can reach its sum.

    ``rise`` holds minus the chord slopes, increasing.  A slope's terms
    rise up to the first chord slope below ``-s/t``, and ``searchsorted``
    finds that atom, ``p``.  Its term, as the kernel computes it, is a lower
    bound of the row's largest.  The terms are then computed at every
    ``_RUN_COARSE``-th atom: the last of them left of ``p`` and the first
    right of it that lie more than ``1 - _EXP_ZERO`` below ``p``'s term
    bound the run, for a unimodal row falls off beyond each.  Every term
    outside lies more than ``-_EXP_ZERO`` below the largest, with a margin
    of 1 for rounding (below ``_RUN_REACH`` it is under 2**-5), so the
    kernel would give it the exact 0.0.  The slopes are sorted, and each
    block of rows computes the union of its runs, in the kernel's order of
    operations and at the same columns of full-width rows of 0.0.
    """
    atoms = locs.size
    order = np.argsort(slopes, kind="stable")
    s = slopes[order, None]

    def terms(ss, cols):  # the exponents, as _group_log_sums builds them
        x = ss * locs[cols]
        x /= t
        x += logm[cols]
        return x

    with np.errstate(over="ignore"):  # s/t may overflow where the atoms are tiny
        p = np.searchsorted(rise, s / t)
    coarse = np.unique(np.append(np.arange(0, atoms, _RUN_COARSE), atoms - 1))
    low = terms(s, coarse) < terms(s, p) - (1.0 - _EXP_ZERO)
    first = np.where(low & (coarse < p), coarse, 0).max(axis=1)
    last = np.where(low & (coarse > p), coarse, atoms - 1).min(axis=1)
    per = max(1, _BLOCK_TERMS // atoms)  # rows per block
    zeros = np.zeros((per, atoms))
    out = np.empty(slopes.size)
    for i in range(0, slopes.size, per):
        ii = slice(i, i + per)
        lo, hi = first[ii].min().item(), last[ii].max().item() + 1
        x = terms(s[ii], slice(lo, hi))
        out[order[ii]] = _log_sum_exp_rows(x, zeros[: x.shape[0]], lo)
    return out


def _groups(parts: list[tuple[np.ndarray, np.ndarray]]) -> list[tuple]:
    """The samples of equal atom count, each group ``(indices, locs, logm)``
    with ``locs``/``logm`` stacked to ``(samples, atoms)``."""
    by_size: dict[int, list[int]] = {}
    for j, (locs, _) in enumerate(parts):
        by_size.setdefault(locs.size, []).append(j)
    return [
        (np.array(idx), *(np.stack([parts[j][k] for j in idx]) for k in (0, 1)))
        for idx in by_size.values()
    ]


class Window:
    """One tail window of a net: its scales ``ts``, its measures and the side
    log-sums ``A``/``B`` that every table over it reads.

    A net holds one window per :class:`WindowSpec`; :func:`window_of` builds
    it.  Each distinct slope is summed once per side, over all samples in one
    batch per group of samples with the same atom count (see
    :func:`_group_log_sums`); the groups are stacked on the first slope-sum
    request.  The distinct measure objects are stacked once too, one
    ``(measures, atoms)`` array per atom count, on the first ball-mass or
    custom-tilt request: :meth:`powered` runs the ball-mass kernel once per
    such stack, over all of its rows, and custom tilts are evaluated once
    per table on the atoms of all samples together.
    """

    def __init__(self, net: ScaledMeasureNet, spec: WindowSpec):
        ks = spec.indices(net)
        self.ts = np.array([net.t(int(k)) for k in ks])
        self._measures = [net.measure(int(k)) for k in ks]
        self._stack: list[tuple] | None = None
        self._sides: tuple[list, list] | None = None
        self._known: tuple[dict[float, np.ndarray], ...] = ({}, {})

    def _stacked(self) -> list[tuple]:
        """The distinct measures per atom count, each group ``(samples, rows,
        locs, logm)``: sample ``samples[i]`` reads row ``rows[i]`` of the
        ``(measures, atoms)`` arrays ``locs`` and ``logm``."""
        if self._stack is None:
            groups: dict[int, tuple[list, list, dict]] = {}
            for j, m in enumerate(self._measures):
                samples, rows, distinct = groups.setdefault(m.locations.size, ([], [], {}))
                samples.append(j)
                rows.append(distinct.setdefault(id(m), (len(distinct), m))[0])
            self._stack = [
                (np.array(samples), np.array(rows),
                 *(np.stack([getattr(m, f) for _, m in distinct.values()])
                   for f in ("locations", "log_masses")))
                for samples, rows, distinct in groups.values()
            ]
        return self._stack

    def powered(self, lo, hi, lo_open=True, hi_open=True, counts=None) -> np.ndarray:
        """``t_k * log mu_k(I)`` of every interval ``I`` from ``lo`` to ``hi``,
        one row per sample; the flags say which ends are open, as in
        :func:`~ldpkit.measures.log_masses_in`.

        With ``counts``, the intervals come in consecutive runs of those
        lengths, one run per region, and a region's log-mass is
        ``np.logaddexp.reduce`` over its columns, in order (``-inf`` for no
        interval), before the power.  Each atom-count stack of distinct
        measures takes one kernel call, each of its rows once.
        """
        width = np.size(lo) if counts is None else len(counts)
        out = np.empty((self.ts.size, width))
        for samples, rows, locs, logm in self._stacked():
            masses = log_masses_in(locs, logm, lo, hi, lo_open, hi_open)
            if counts is not None:
                ends = np.cumsum([0, *counts]).tolist()
                regions = np.empty((masses.shape[0], width))
                for i, (a, b) in enumerate(zip(ends, ends[1:])):
                    regions[:, i] = np.logaddexp.reduce(masses[:, a:b], axis=1)
                masses = regions
            out[samples] = self.ts[samples, None] * masses[rows]
        return out

    def slope_sums(self, side: int, slopes: np.ndarray) -> np.ndarray:
        """``(samples, slopes)`` sums over the atoms at ``x <= 0`` (side 0)
        or ``x > 0`` (side 1), each slope summed on its first request."""
        if self._sides is None:
            cuts = [np.searchsorted(m.locations, 0.0, "right") for m in self._measures]
            pairs = list(zip(self._measures, cuts))
            left = [(m.locations[:c], m.log_masses[:c]) for m, c in pairs]
            right = [(m.locations[c:], m.log_masses[c:]) for m, c in pairs]
            self._sides = (_groups(left), _groups(right))
        known = self._known[side]
        keys = slopes.tolist()
        new = [s for s in keys if s not in known]
        if new:
            axis = np.array(new)
            fresh = np.empty((axis.size, self.ts.size))
            for idx, locs, logm in self._sides[side]:
                fresh[:, idx] = _slope_log_sums(axis, self.ts[idx], locs, logm)
            known.update(zip(new, fresh))
        return np.array([known[s] for s in keys]).reshape(len(keys), self.ts.size).T

    def custom_sums(self, members: Sequence[TiltFunction]) -> np.ndarray:
        """``(samples, members)`` log-sums of the custom ``members`` over all atoms.

        Each member is evaluated once, on the atoms of every sample together.
        """
        groups = [(idx, locs[rows], logm[rows]) for idx, rows, locs, logm in self._stacked()]
        atoms = np.concatenate([locs.ravel() for _, locs, _ in groups])
        h = np.array([member.eval_array(atoms) for member in members])
        out = np.empty((self.ts.size, len(members)))
        start = 0
        for idx, locs, logm in groups:
            h_group = h[:, start : start + locs.size].reshape(len(members), *locs.shape)
            start += locs.size
            out[idx] = _group_log_sums(
                len(members), self.ts[idx], logm, lambda ii, jj: h_group[ii, jj].copy()
            ).T
        return out


def window_of(net: ScaledMeasureNet, spec: WindowSpec) -> Window:
    """The window of ``net`` over ``spec``, built on first use and kept in
    ``net.windows``, so it lives as long as the net."""
    window = net.windows.get(spec)
    if window is None:
        window = net.windows[spec] = Window(net, spec)
    return window


def _classify_limits(
    ts: np.ndarray, rows: np.ndarray, tol: float, divergence_threshold: float
) -> FamilyTable:
    """The limit estimates of every column of a samples x members table."""
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
    tol: float = Tolerances.convergence,
    divergence_threshold: float = Tolerances.divergence_threshold,
) -> FamilyTable:
    """Free-energy estimates for every member of a family.

    Agrees, member by member, with a one-pass log-sum-exp over each
    sample's atoms, up to the rounding of the split log-sum (see the module
    docstring); ``tests/oracles.py`` keeps that one-pass form.
    """
    sums = window_of(net, window)
    ts = sums.ts
    lam, nu = family.lam, family.nu
    sloped = ~np.isnan(lam)
    lam_axis, lam_at = np.unique(lam[sloped], return_inverse=True)
    nu_axis, nu_at = np.unique(nu[sloped], return_inverse=True)
    rows = np.empty((ts.size, lam.size))
    a, b = sums.slope_sums(0, lam_axis), sums.slope_sums(1, nu_axis)
    cols = np.flatnonzero(sloped) if family.custom else slice(None)  # not a mask: slower
    if family.custom:
        rows[:, ~sloped] = ts[:, None] * sums.custom_sums(family.custom)
    per = max(1, (_BLOCK_TERMS >> 2) // max(1, lam_at.size))  # samples; 2^15 terms page-faulted
    for jj in (slice(j, j + per) for j in range(0, ts.size, per)):
        pairs = np.take(a[jj], lam_at, axis=1), np.take(b[jj], nu_at, axis=1)
        rows[jj, cols] = ts[jj, None] * _logaddexp(*pairs)
    return _classify_limits(ts, rows, tol, divergence_threshold)


def L_from_table(family: TiltFamily, table: FamilyTable, label: str = "L") -> GridFunction:
    """``lam -> F(h_lam)`` of a linear family from its table of estimates.

    The grid function carries the representative values, ``+inf`` where an
    entry diverged; ``meta`` holds the table's own per-point arrays:
    the convergence flags and the liminf/limsup brackets.
    """
    if not np.array_equal(family.lam, family.nu):
        raise ValueError("L needs a family of linear tilts")
    meta = {key: getattr(table, key) for key in ("converged", "liminf", "limsup")}
    return GridFunction(family.lam, table.value, label=label, meta=meta)

