"""Grid-based convex analysis.

A :class:`GridFunction` is an extended-real function sampled on a strictly
increasing grid.  Off the grid span the function is taken to be ``+inf``,
and between grid points it is interpolated linearly; conjugation is exact
for that piecewise-linear extension, which makes every operation here
reproducible and oracle-checkable.

The operations: Legendre-Fenchel transform (hull + slope scan), cell
slopes and their merged range, and an essential-smoothness diagnostic.
The references the tests hold these to -- the O(n*m) brute-force
conjugate, the greatest convex lsc minorant (Fenchel-Moreau) and the
infima over open regions (the proper-convex-lsc restriction lemma) --
live in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .extreal import INF

KINK_FLOOR = 1e-6
KINK_FACTOR = 8.0
SLOPE_DIVERGENCE = 1e6  # boundary slope an essentially smooth table reaches
CONVEXITY_TOL = 1e-6  # slope decrease a convex table forgives
RANGE_MERGE_FACTOR = 8.0


class GridFormatError(ValueError):
    """Raised when a grid-function file cannot be parsed."""


@dataclass(frozen=True)
class GridFunction:
    """Extended-real values on a strictly increasing grid."""

    xs: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if xs.ndim != 1 or vals.ndim != 1 or xs.shape != vals.shape:
            raise ValueError("xs and values must be 1-D arrays of equal length")
        if xs.size < 2:
            raise ValueError("a grid function needs at least two points")
        if not np.isfinite(xs).all():
            raise ValueError("grid points must be finite")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(np.isnan(vals)):
            raise ValueError("values must not contain NaN")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", vals)

    @property
    def finite_mask(self) -> np.ndarray:
        return np.isfinite(self.values)

    @property
    def is_proper(self) -> bool:
        """At least one finite value and no -inf anywhere."""
        return bool(self.finite_mask.any()) and not bool(
            np.any(np.isneginf(self.values))
        )

    def restrict_open(self, lo: float, hi: float) -> "GridFunction":
        """Sub-grid of the points strictly inside (lo, hi)."""
        mask = (self.xs > lo) & (self.xs < hi)
        if mask.sum() < 2:
            raise ValueError(f"fewer than two grid points inside ({lo}, {hi})")
        return GridFunction(self.xs[mask], self.values[mask])


# ---------------------------------------------------------------------------
# hulls and conjugates
# ---------------------------------------------------------------------------


def _finite_points(f: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    mask = f.finite_mask
    return f.xs[mask], f.values[mask]


def _require_proper(f: GridFunction) -> None:
    if not f.is_proper:
        raise ValueError(
            "grid function is improper (needs a finite value and no -inf entries)"
        )


def lower_hull_vertices(f: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of the lower convex hull of the finite points (monotone chain)."""
    _require_proper(f)
    xs, vs = _finite_points(f)
    keep_x: list[float] = []
    keep_v: list[float] = []
    for x, v in zip(xs, vs):
        while len(keep_x) >= 2:
            x1, v1 = keep_x[-2], keep_v[-2]
            x2, v2 = keep_x[-1], keep_v[-1]
            # pop the middle point when it lies on or above chord (x1,v1)-(x,v)
            if (v2 - v1) * (x - x1) >= (v - v1) * (x2 - x1):
                keep_x.pop()
                keep_v.pop()
            else:
                break
        keep_x.append(float(x))
        keep_v.append(float(v))
    return np.array(keep_x), np.array(keep_v)


def lf_transform(f: GridFunction, dual_grid: Sequence[float]) -> GridFunction:
    """Legendre-Fenchel transform ``f*(x) = sup_l (l*x - f(l))``.

    Exact conjugate of the piecewise-linear extension of ``f`` (+inf off the
    grid): the lower hull of the finite points is built first, then each dual
    point is matched to the hull vertex whose slope interval contains it.
    Ties are broken toward the smaller abscissa.  Dual points outside the
    hull's slope range are flagged in ``meta['off_slope_range']``: there the
    conjugate is governed by the grid truncation rather than by the sampled
    function, so values are kept (they are exact for the extension) but
    marked untrusted.
    """
    dual = np.asarray(dual_grid, dtype=float)
    if dual.ndim != 1 or dual.size < 2 or np.any(np.diff(dual) <= 0):
        raise ValueError("dual_grid must be strictly increasing with >= 2 points")
    hx, hv = lower_hull_vertices(f)
    if hx.size == 1:
        vals = dual * hx[0] - hv[0]
        off = np.zeros(dual.shape, dtype=bool)
    else:
        slopes = _chords(GridFunction(hx, hv))
        j = np.searchsorted(slopes, dual, side="left")
        vals = dual * hx[j] - hv[j]
        off = (dual < slopes[0]) | (dual > slopes[-1])
    return GridFunction(dual, vals, meta={"off_slope_range": off})


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------


def _chords(f: GridFunction) -> np.ndarray:
    """Slope of every grid cell, ``(v[i+1] - v[i]) / (x[i+1] - x[i])``.

    A cell with one infinite end has an infinite slope, one between equal
    infinities a NaN slope.
    """
    with np.errstate(invalid="ignore"):
        return np.diff(f.values) / np.diff(f.xs)


def chord_slopes(f: GridFunction) -> np.ndarray:
    """Slopes between consecutive grid points where both values are finite."""
    mask = f.finite_mask
    return _chords(f)[mask[:-1] & mask[1:]]


@dataclass(frozen=True)
class DerivativeRange:
    """Closure of the attained one-sided slopes, merged into components.

    Components are closed intervals (possibly single points).  ``merge_gap``
    records the gap below which neighboring slopes were joined; set coverage
    queries should allow at least this much slack.
    """

    components: tuple[tuple[float, float], ...]
    merge_gap: float

    @property
    def is_empty(self) -> bool:
        return len(self.components) == 0

    def distance(self, x):
        """Distance from ``x``, a number or an array, to the nearest component."""
        x = np.asarray(x, dtype=float)
        if self.is_empty:
            return np.full(x.shape, INF)[()]
        bounds = np.array(self.components).ravel()  # lo_0 <= hi_0 < lo_1 <= ...
        above = np.searchsorted(bounds, x, side="right")  # bounds <= x
        near = np.minimum(
            np.abs(x - bounds[np.maximum(above - 1, 0)]),
            np.abs(x - bounds[np.minimum(above, bounds.size - 1)]),
        )
        return np.where(above % 2 == 1, 0.0, near)[()]  # odd: past a lo, not its hi

    def covers(self, x, slack=0.0):
        """Whether ``x`` lies within ``slack`` of the range, elementwise."""
        return self.distance(x) <= slack


def derivative_range(f: GridFunction, G: tuple[float, float]) -> DerivativeRange:
    """Range of one-sided slopes of the restriction of ``f`` to open ``G``.

    Collects the chord slopes between consecutive finite grid points inside
    ``G`` and merges slopes whose gap is below the merge gap, ``8 *
    median(slope gaps)``, into closed intervals: for a smooth
    sample the gaps are all of the same O(h) order, so the range fuses into
    one interval, while a kink contributes an O(1) jump far above the median
    (which stays 0 or O(h)) and survives as a component boundary.  The
    result is a closure: exact ranges are not grid-decidable.
    """
    lo, hi = G
    mask = (f.xs > lo) & (f.xs < hi) & f.finite_mask
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise ValueError(f"open interval ({lo}, {hi}) misses the grid")
    slopes = _chords(f)[idx[:-1][np.diff(idx) == 1]]
    slopes = np.sort(slopes[np.isfinite(slopes)])
    if slopes.size == 0:
        return DerivativeRange((), 0.0)
    gaps = np.diff(slopes)
    span = float(abs(slopes[-1] - slopes[0]))
    floor = 1e-12 * max(1.0, span)
    merge_gap = (
        max(RANGE_MERGE_FACTOR * float(np.median(gaps)), floor)
        if gaps.size
        else 0.0
    )
    components: list[tuple[float, float]] = []
    start = prev = float(slopes[0])
    for s in slopes[1:]:
        s = float(s)
        if s - prev > merge_gap:
            components.append((start, prev))
            start = s
        prev = s
    components.append((start, prev))
    return DerivativeRange(tuple(components), merge_gap)


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------


def _runs(mask: np.ndarray) -> np.ndarray:
    """``[first, last]`` index of every maximal run of True in ``mask``, one row each."""
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    return edges.reshape(-1, 2) - [0, 1]


def interior_mask(mask: np.ndarray) -> np.ndarray:
    """Drop the first and last index of every True-run."""
    out = mask.copy()
    out[_runs(mask).ravel()] = False
    return out


def is_convex_table(f: GridFunction) -> bool:
    """Numerically convex: contiguous finite part with slopes that decrease
    by at most ``CONVEXITY_TOL``."""
    if len(_runs(f.finite_mask)) != 1:
        return False
    s = chord_slopes(f)
    if s.size < 2:
        return True
    return bool(np.all(np.diff(s) >= -CONVEXITY_TOL))


# ---------------------------------------------------------------------------
# essential smoothness
# ---------------------------------------------------------------------------


def essential_smoothness_check(f: GridFunction) -> tuple[bool, dict]:
    """Essential-smoothness diagnostic for a convex grid function.

    Three clauses:

    1. the effective domain is an interval with nonempty interior;
    2. no interior kink: the one-sided slope jump at each interior point
       must not exceed ``max(KINK_FLOOR * (1+|l|+|r|), KINK_FACTOR * median
       jump)`` -- the median term separates genuine kinks from the O(h)
       slope increments of a smooth sample, the floor absorbs window noise;
    3. at each *witnessed* finite domain boundary (an explicit +inf cell
       beyond it on the grid) the adjacent slope magnitude must reach
       ``SLOPE_DIVERGENCE``.  A domain that runs to the edge of the grid
       leaves no witnessed boundary: the function may well continue, so no
       divergence is required there.
    """
    runs = _runs(f.finite_mask)
    diag: dict = {
        "domain_is_interval": len(runs) == 1,
        "nonempty_interior": False,
        "kink_points": [],
        "boundary_failures": [],
        "witnessed_boundaries": [],
    }
    if len(runs) != 1:
        return False, diag
    i0, j0 = runs[0].tolist()
    diag["nonempty_interior"] = j0 > i0
    if j0 == i0:
        return False, diag

    slopes = _chords(f)[i0:j0]
    jumps = np.diff(slopes)
    if jumps.size:
        med = float(np.median(jumps))
        for k, jump in enumerate(jumps):
            left, right = float(slopes[k]), float(slopes[k + 1])
            threshold = max(
                KINK_FLOOR * (1.0 + abs(left) + abs(right)), KINK_FACTOR * med
            )
            if jump > threshold:
                diag["kink_points"].append(
                    {"x": float(f.xs[i0 + 1 + k]), "left": left, "right": right}
                )

    if i0 > 0:  # witnessed left boundary
        diag["witnessed_boundaries"].append(float(f.xs[i0]))
        if abs(slopes[0]) < SLOPE_DIVERGENCE:
            diag["boundary_failures"].append(
                {"x": float(f.xs[i0]), "slope": float(slopes[0])}
            )
    if j0 < f.xs.size - 1:  # witnessed right boundary
        diag["witnessed_boundaries"].append(float(f.xs[j0]))
        if abs(slopes[-1]) < SLOPE_DIVERGENCE:
            diag["boundary_failures"].append(
                {"x": float(f.xs[j0]), "slope": float(slopes[-1])}
            )

    holds = (
        diag["nonempty_interior"]
        and not diag["kink_points"]
        and not diag["boundary_failures"]
    )
    return holds, diag


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def _write_rows(path, *columns: Sequence[str]) -> None:
    """Write text columns side by side, one comma-separated line per row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(map(",".join, zip(*columns))) + "\n")


def _reprs(values: np.ndarray, scalars: bool = False) -> list[str]:
    """``repr`` of each entry of a float64 array as a ``float`` (or, with
    ``scalars``, a numpy scalar), each distinct value formatted once; values
    are keyed by their bits, since ``-0.0 == 0.0`` but their reprs differ."""
    bits, at = np.unique(values.view(np.int64), return_inverse=True)
    distinct = bits.view(np.float64)
    text = list(map(repr, distinct if scalars else distinct.tolist()))
    return [text[i] for i in at.tolist()]


def save_grid_csv(f: GridFunction, path) -> None:
    """Write ``x,value`` lines; +-inf as literal ``inf`` / ``-inf``."""
    _write_rows(path, _reprs(f.xs), _reprs(f.values))


def load_grid_csv(path) -> GridFunction:
    """Read a ``x,value`` file; enforces a strictly increasing grid."""
    xs: list[float] = []
    vals: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise GridFormatError(
                    f"{path}:{lineno}: expected 'x,value', got {raw.strip()!r}"
                )
            try:
                x, v = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise GridFormatError(f"{path}:{lineno}: {exc}") from exc
            if not math.isfinite(x):
                raise GridFormatError(f"{path}:{lineno}: grid point x = {x} is not finite")
            if math.isnan(v):
                raise GridFormatError(f"{path}:{lineno}: value at x = {x} is NaN")
            if xs and x <= xs[-1]:
                raise GridFormatError(
                    f"{path}:{lineno}: grid must be strictly increasing"
                )
            if xs and not math.isfinite(x - xs[-1]):
                step = f"grid step from x = {xs[-1]} to x = {x}"
                raise GridFormatError(f"{path}:{lineno}: {step} is not finite")
            if xs and math.isfinite(v) and math.isfinite(vals[-1]):
                if not math.isfinite((v - vals[-1]) / (x - xs[-1])):
                    chord = f"chord slope from x = {xs[-1]} to x = {x}"
                    raise GridFormatError(f"{path}:{lineno}: {chord} is not finite")
            xs.append(x)
            vals.append(v)
    if len(xs) < 2:
        raise GridFormatError(f"{path}: need at least two grid points")
    return GridFunction(np.array(xs), np.array(vals))
