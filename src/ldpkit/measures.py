"""Finite-support sub-probability measures, regions, and scaled nets.

The basic object is a measure with finitely many atoms on the real line and
total mass at most one.  Masses are kept in log scale internally: the
worked example families push atom masses far below the smallest positive
double (e.g. ``exp(-k**2)`` for index ``k`` in the thousands), so a linear
representation would silently flush them to zero.  Interval (ball)
masses are log-space scans over each query's own atoms, one kernel call
over a stack of measures with the same atom count (:func:`log_masses_in`;
:meth:`FiniteSupportMeasure.log_masses_in` is its one-row call), so
nothing is built or kept per measure, and tiny atoms beside heavy ones
keep their digits.

A :class:`ScaledMeasureNet` is an indexed family ``k -> (measure, t_k)``
with a strictly decreasing positive scale ``t_k -> 0``.  The three built-in
nets (fair two-point coin, escaping three-atom family, iid empirical mean
of a two-atom base) are the standard test beds for free-energy and
rate-function estimation.

The module needs numpy only: measure totals are a numpy log-sum, and the
iid law is Loader's saddle-point binomial, so no command loads scipy.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .extreal import INF, NEG_INF

ATOM_MERGE_TOL = 1e-12
MASS_SLACK = 1e-9


def _log_sum(logm: np.ndarray) -> float:
    """``log sum exp(logm)``, ``-inf`` for no atoms.  numpy, not scipy's
    ``logsumexp``: its fixed cost per call was most of a few-atom measure's
    build."""
    if logm.size == 0:
        return NEG_INF
    peak = logm.max()
    return float(peak + math.log(np.exp(logm - peak).sum()))


def _merge_atoms(locations: np.ndarray, log_masses: np.ndarray):
    """Sort atoms and merge locations closer than ATOM_MERGE_TOL.  A NaN
    location is never merged, so the measure then rejects it."""
    order = np.argsort(locations, kind="stable")
    locs = locations[order]
    logm = log_masses[order]
    if locs.size == 0:
        return locs, logm
    # group boundaries where the gap exceeds the merge tolerance
    starts = np.flatnonzero(np.concatenate(([True], ~(np.diff(locs) <= ATOM_MERGE_TOL))))
    if starts.size == locs.size:
        return locs, logm
    merged_locs = locs[starts]
    merged_logm = np.logaddexp.reduceat(logm, starts)
    return merged_locs, merged_logm


@dataclass(frozen=True)
class FiniteSupportMeasure:
    """Sub-probability measure with finitely many atoms.

    Parameters
    ----------
    locations : ndarray
        Finite, strictly increasing atom locations.
    log_masses : ndarray
        Natural-log masses, all finite (every atom carries positive mass).
    """

    locations: np.ndarray
    log_masses: np.ndarray

    def __post_init__(self):
        locs = np.asarray(self.locations, dtype=float)
        logm = np.asarray(self.log_masses, dtype=float)
        if locs.ndim != 1 or logm.ndim != 1 or locs.shape != logm.shape:
            raise ValueError("locations and log_masses must be 1-D of equal length")
        if not np.isfinite(logm).all():
            raise ValueError("every atom must carry a positive finite mass")
        if not (np.isfinite(locs).all() and (locs[1:] > locs[:-1]).all()):
            raise ValueError("locations must be finite and strictly increasing")
        total = _log_sum(logm)
        if total > math.log1p(MASS_SLACK):
            raise ValueError(f"total mass exp({total}) exceeds 1")
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "log_masses", logm)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_atoms(cls, atoms: Iterable[tuple[float, float]]) -> "FiniteSupportMeasure":
        """Build from (location, mass) pairs; nearby atoms are merged."""
        pairs = list(atoms)
        locs = np.array([p[0] for p in pairs], dtype=float)
        masses = np.array([p[1] for p in pairs], dtype=float)
        if np.any(masses <= 0):
            raise ValueError("masses must be strictly positive")
        with np.errstate(divide="ignore"):
            logm = np.log(masses)
        locs, logm = _merge_atoms(locs, logm)
        return cls(locs, logm)

    # -- views -------------------------------------------------------------

    @property
    def log_total_mass(self) -> float:
        return _log_sum(self.log_masses)

    def is_probability(self, tol: float = MASS_SLACK) -> bool:
        return abs(self.log_total_mass) <= tol

    def normalized(self) -> "FiniteSupportMeasure":
        """Rescale to exact total mass 1 (log-total subtracted)."""
        total = self.log_total_mass
        if total == NEG_INF:
            raise ValueError("cannot normalize the zero measure")
        return FiniteSupportMeasure(self.locations, self.log_masses - total)

    # -- mass queries --------------------------------------------------------

    def log_masses_in(self, lo, hi, lo_open=True, hi_open=True) -> np.ndarray:
        """log of the mass of every interval from ``lo`` to ``hi``: the one-row
        call of :func:`log_masses_in`, shaped as the broadcast arguments."""
        return log_masses_in(
            self.locations[None], self.log_masses[None], lo, hi, lo_open, hi_open
        )[0]


def log_masses_in(locations, log_masses, lo, hi, lo_open=True, hi_open=True) -> np.ndarray:
    """log of the mass of every interval from ``lo`` to ``hi`` under every
    row of the ``(rows, atoms)`` arrays, shape ``(rows, *queries)``.  Each
    row is one measure's, with finite, strictly increasing locations, as
    :class:`FiniteSupportMeasure` holds them.

    ``lo``, ``hi`` and the flags broadcast to the query shape; the flags say
    which ends are open.  Each interval holds one run ``[i0, i1)`` of
    consecutive atoms of a row, found by one ``searchsorted`` pair per row
    (``side="left"``); an end that sits on an atom then steps past it where
    its flag asks for ``side="right"``.  A run of two or more atoms straddles
    exactly one midpoint ``mid``, a multiple of ``2**level`` with ``level =
    bit_length(i0 ^ (i1-1)) - 1``, and its mass is the ``logaddexp`` of two
    scans: ``np.logaddexp.accumulate`` from ``mid-1`` down to ``i0`` and
    from ``mid`` up to ``i1-1``.  Each level runs one padded accumulate over
    its distinct (row, midpoint) pairs, as long as its farthest query, so a
    row's work never exceeds that of a disjoint sparse table over its
    atoms, whose entries are these same scans, bit for bit
    (``tests/oracles.py`` keeps that table).  A run of one atom is that
    atom's log-mass, an empty run ``-inf``.  Prefix sums are not used:
    ``log(S_hi - S_lo)`` cancels tiny atoms that sit beside a heavy one,
    e.g. ``exp(-k**2)`` next to ``1 - 2 exp(-k**2)``.
    """
    lo, hi, lo_open, hi_open = np.broadcast_arrays(
        np.asarray(lo, dtype=float), np.asarray(hi, dtype=float),
        np.asarray(lo_open, dtype=bool), np.asarray(hi_open, dtype=bool),
    )
    rows, n = log_masses.shape
    shape = (rows, *lo.shape)
    lo, hi, lo_open, hi_open = (a.ravel() for a in (lo, hi, lo_open, hi_open))
    # flat rows of n + 1: column n reads -inf in the log-masses and is never
    # equal in the locations
    locs = np.concatenate((locations, np.full((rows, 1), np.nan)), axis=1).ravel()
    logm = np.concatenate((log_masses, np.full((rows, 1), NEG_INF)), axis=1).ravel()
    base = np.arange(0, rows * (n + 1), n + 1)[:, None]
    i0, i1 = np.empty((2, rows, lo.size), dtype=np.intp)
    for row, a, b in zip(locations, i0, i1):  # side="left"
        a[:] = row.searchsorted(lo)
        b[:] = row.searchsorted(hi)
    i0 += (locs[base + i0] == lo) & lo_open
    i1 += (locs[base + i1] == hi) & ~hi_open
    # a single atom pairs with -inf, as does an empty run
    left = logm[base + np.where(i1 > i0, i0, n)].ravel()
    i0, i1 = i0.ravel(), i1.ravel()
    right = np.full(left.shape, NEG_INF)
    multi = np.flatnonzero(i1 - i0 > 1)
    first, last = i0[multi], i1[multi] - 1
    level = np.frexp(first ^ last)[1] - 1  # frexp's exponent is bit_length
    mid = last >> level << level
    pair = multi // lo.size * (n + 1) + mid  # (row, midpoint) as one flat index
    for lev in np.unique(level).tolist():
        on = np.flatnonzero(level == lev)
        pairs, row = np.unique(pair[on], return_inverse=True)
        down, up = mid[on] - first[on], last[on] - mid[on]  # farthest steps out
        width = max(down.max().item(), up.max().item() + 1)
        # rows 0..m-1 scan down from mid-1, rows m..2m-1 up from mid; no scan
        # leaves its row, for mid >= 2**level >= width
        mids = pairs % (n + 1)
        starts = np.concatenate((mids - 1, mids))[:, None]
        steps = np.repeat([-1, 1], pairs.size)[:, None] * np.arange(width)
        at_row = np.tile(pairs - mids, 2)[:, None]
        scans = np.logaddexp.accumulate(logm[at_row + np.minimum(starts + steps, n)], axis=1)
        left[multi[on]] = scans[row, down - 1]
        right[multi[on]] = scans[row + pairs.size, up]
    return np.logaddexp(left, right).reshape(shape)


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")
        if self.lo == self.hi and (self.lo_open or self.hi_open):
            raise ValueError("degenerate interval must be closed on both sides")

    def mask(self, xs: np.ndarray) -> np.ndarray:
        above = xs > self.lo if self.lo_open else xs >= self.lo
        below = xs < self.hi if self.hi_open else xs <= self.hi
        return above & below


@dataclass(frozen=True)
class RegionSet:
    """Disjoint, sorted union of intervals (open/closed ends, +-inf allowed)."""

    intervals: tuple[Interval, ...] = ()

    def __post_init__(self):
        ivs = tuple(self.intervals)
        for a, b in zip(ivs, ivs[1:]):
            if b.lo < a.hi or (b.lo == a.hi and not (a.hi_open or b.lo_open)):
                raise ValueError("intervals must be sorted and pairwise disjoint")
        object.__setattr__(self, "intervals", ivs)

    @classmethod
    def closed(cls, lo: float, hi: float) -> "RegionSet":
        return cls((Interval(lo, hi, False, False),))

    @classmethod
    def open(cls, lo: float, hi: float) -> "RegionSet":
        return cls((Interval(lo, hi, True, True),))

    @classmethod
    def complement_of_closed(cls, lo: float, hi: float) -> "RegionSet":
        """The two open rays around the closed interval [lo, hi]."""
        return cls(
            (Interval(NEG_INF, lo, True, True), Interval(hi, INF, True, True))
        )

    def mask(self, xs: np.ndarray) -> np.ndarray:
        out = np.zeros(xs.shape, dtype=bool)
        for iv in self.intervals:
            out |= iv.mask(xs)
        return out


# ---------------------------------------------------------------------------
# scaled nets
# ---------------------------------------------------------------------------


class ScaledMeasureNet:
    """Indexed family ``k -> (measure_k, t_k)`` with ``t_k`` decreasing to 0.

    ``t_of`` must be strictly decreasing in ``k``; this is spot-checked at
    construction and otherwise trusted.  Measures are built lazily and cached,
    each index once.  ``windows`` holds the net's windows, one per
    ``WindowSpec``, which ``free_energy.window_of`` builds and reads.  A net
    is not for sharing across threads.
    """

    def __init__(
        self,
        t_of: Callable[[int], float],
        measure_of: Callable[[int], FiniteSupportMeasure],
        max_index: int = 1_000_000,
    ):
        if max_index < 2:
            raise ValueError("max_index must be at least 2")
        ks = sorted(k for k in {1, 2, max(3, max_index // 2), max_index} if k <= max_index)
        probe = [t_of(k) for k in ks]
        if any(t <= 0 for t in probe):
            raise ValueError("t(k) must be positive")
        if any(b >= a for a, b in zip(probe, probe[1:])):
            raise ValueError("t(k) must be strictly decreasing")
        self._t_of = t_of
        self._measure_of = measure_of
        self._cache: dict[int, FiniteSupportMeasure] = {}
        self.windows: dict = {}
        self.max_index = max_index

    def t(self, k: int) -> float:
        self._check_index(k)
        return float(self._t_of(k))

    def measure(self, k: int) -> FiniteSupportMeasure:
        self._check_index(k)
        m = self._cache.get(k)
        if m is None:
            m = self._cache[k] = self._measure_of(k)
        return m

    def _check_index(self, k: int) -> None:
        if not (1 <= k <= self.max_index):
            raise IndexError(f"index {k} outside [1, {self.max_index}]")

    def index_range_for_t(self, t_max: float, t_min: float) -> tuple[int, int]:
        """Smallest index with t <= t_max, largest index with t >= t_min."""
        if not (0 < t_min < t_max):
            raise ValueError("need 0 < t_min < t_max")
        ks = range(1, self.max_index + 1)
        # t decreases, so each test is False up to an index and True after it
        start = 1 + bisect.bisect_left(ks, True, key=lambda k: self._t_of(k) <= t_max)
        end = bisect.bisect_left(ks, True, key=lambda k: self._t_of(k) < t_min)
        if start >= end:
            raise ValueError("t-range selects fewer than two indices")
        return start, end


def coin_example_net(max_index: int = 1_000_000) -> ScaledMeasureNet:
    """Fair two-point net: atoms at -1 and +1 with mass 1/2 each, t_k = 1/k."""
    coin = FiniteSupportMeasure.from_atoms([(-1.0, 0.5), (1.0, 0.5)])
    return ScaledMeasureNet(
        t_of=lambda k: 1.0 / k,
        measure_of=lambda k: coin,
        max_index=max_index,
    )


def demzei_example_net(max_index: int = 1_000_000) -> ScaledMeasureNet:
    """Three-atom family whose outer atoms escape to +-infinity.

    At scale ``eps_k = 1/k`` the measure puts mass ``1 - 2 p`` at 0 and mass
    ``p`` at the two locations ``+-(eps * log p)``, with ``log p = -1/eps**2``
    (so ``eps * log p -> -inf``): the outer atoms sit at ``-+k`` with
    log-mass ``-k**2``.
    """

    def build(k: int) -> FiniteSupportMeasure:
        eps = 1.0 / k
        logp = -1.0 / (eps * eps)  # not -k*k: the atoms keep these bits
        p = math.exp(logp)
        log_center = math.log1p(-2.0 * p) if p > 0 else 0.0
        # -0.0 from log1p(-0.0) is normalized to 0.0
        log_center += 0.0
        outer = eps * logp  # negative, diverging, at most -1: no atoms to sort or merge
        return FiniteSupportMeasure(
            np.array([outer, 0.0, -outer]), np.array([logp, log_center, logp])
        )

    return ScaledMeasureNet(
        t_of=lambda k: 1.0 / k, measure_of=build, max_index=max_index
    )


# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n/e)^n) for n = 1..15, from the
# table of Loader (2000) that R's dbinom uses; entry 0 is never read.  That
# table also holds the half-integers, which integer counts never reach.
_STIRLERR = np.array([
    0.0,
    0.0810614667953272582196702, 0.0413406959554092940938221,
    0.02767792568499833914878929, 0.02079067210376509311152277,
    0.01664469118982119216319487, 0.01387612882307074799874573,
    0.01189670994589177009505572, 0.010411265261972096497478567,
    0.009255462182712732917728637, 0.008330563433362871256469318,
    0.007573675487951840794972024, 0.006942840107209529865664152,
    0.006408994188004207068439631, 0.005951370112758847735624416,
    0.005554733551962801371038690,
])
# bd0 takes its series where |x - m| < _BD0_NEAR (x + m).  Loader's 0.1 left
# the direct form's cancellation at up to 31 ulps of the law in full sweeps
# of every k at n = 4096, 8192 and 65536 (p = 1/2, 1/4); 0.2 reads 8.5.
_BD0_NEAR = 0.2


def _stirlerr(n):
    """``log(n!) - log(sqrt(2 pi n) (n/e)**n)`` at counts ``n >= 1``: the
    table up to 15, five terms of the Stirling series above."""
    m = np.maximum(n, 16.0)
    mm = m * m
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / mm) / mm) / mm) / mm) / m
    return np.where(n <= 15, _STIRLERR[np.minimum(n, 15).astype(int)], series)


def _bd0(x: np.ndarray, m: float, log_m: float) -> np.ndarray:
    """The deviance ``x log(x/m) + m - x`` of counts ``x > 0`` from ``m >= 0``.

    Near ``m`` that form cancels, so there it is the series
    ``(x-m) v + 2x sum_j v**(2j+1)/(2j+1)`` with ``v = (x-m)/(x+m)``, summed
    on those entries only until no sum changes.  Where ``x / m`` overflows
    (``m`` subnormal or 0) its log is ``log x - log_m``, large enough there
    to keep its digits.
    """
    with np.errstate(divide="ignore", over="ignore"):
        log_ratio = np.log(x / m)
    big = np.isposinf(log_ratio)
    log_ratio[big] = np.log(x[big]) - log_m
    out = x * log_ratio + m - x
    near = np.flatnonzero(np.abs(x - m) < _BD0_NEAR * (x + m))
    x = x[near]
    v = (x - m) / (x + m)
    s = (x - m) * v
    term = 2 * x * v
    v *= v
    for j in range(1, 1000):
        term *= v
        nxt = s + term / (2 * j + 1)
        if np.array_equal(nxt, s):
            break
        s = nxt
    out[near] = s
    return out


def _iid_mean_law(base: FiniteSupportMeasure, n: int) -> FiniteSupportMeasure:
    """Exact law of the empirical mean of ``n`` iid draws from a two-atom ``base``.

    The base ``{a < b}`` with masses ``m_a``, ``m_b`` gives the binomial law
    at ``((n-k) a + k b)/n``, in Loader's saddle-point form, with
    ``p = m_b/(m_a+m_b)``, ``q = m_a/(m_a+m_b)`` and ``0 < k < n``::

        log C(n, k) p**k q**(n-k) = stirlerr(n) - stirlerr(k) - stirlerr(n-k)
                                    - bd0(k, n p) - bd0(n-k, n q)
                                    - log(2 pi k (n-k)/n) / 2

    plus ``n log(m_a+m_b)``; the ends are ``n log m_a`` and ``n log m_b``.
    No large terms cancel, as they do in ``log n! - log k! - log (n-k)!``
    (C. Loader, "Fast and Accurate Computation of Binomial Probabilities",
    2000).  The result depends on ``base`` and ``n`` alone and is
    normalized to mass 1.
    """
    a, b = base.locations
    log_ma, log_mb = base.log_masses
    m_a, m_b = np.exp(base.log_masses)
    p, q = m_b / (m_a + m_b), m_a / (m_a + m_b)
    log_n, log_total = math.log(n), math.log(m_a + m_b)
    k = np.arange(1.0, n)
    lc = _stirlerr(float(n)) - _stirlerr(k) - _stirlerr(n - k)
    lc = lc - _bd0(k, n * p, log_n + log_mb - log_total)
    lc = lc - _bd0(n - k, n * q, log_n + log_ma - log_total)
    lf = math.log(2 * math.pi) + np.log(k) + np.log1p(-k / n)
    inner = lc - 0.5 * lf + n * log_total
    logm = np.concatenate(([n * log_ma], inner, [n * log_mb]))
    k = np.arange(n + 1)
    return FiniteSupportMeasure(((n - k) * a + k * b) / n, logm - _log_sum(logm))


def iid_mean_example_net(base: FiniteSupportMeasure, max_n: int) -> ScaledMeasureNet:
    """Empirical-mean net: mu_n = law of (X_1 + ... + X_n)/n, t_n = 1/n,
    for a base of exactly two atoms (the Bernoulli scenarios' only kind)."""
    if base.locations.size != 2:
        raise ValueError(f"iid mean net needs a base of two atoms, not {base.locations.size}")
    if not base.is_probability():
        raise ValueError("iid mean net requires a probability base measure")
    base = base.normalized()
    return ScaledMeasureNet(
        t_of=lambda n: 1.0 / n,
        measure_of=lambda n: _iid_mean_law(base, n),
        max_index=max_n,
    )
