"""Tilt functions and families.

A tilt is the test function ``h`` inside the powered exponential integral
``mu^t(exp(h/t))``.  Three kinds are supported:

* ``linear``    -- ``h(x) = lam * x``;
* ``two_slope`` -- slope ``lam`` on ``x <= 0`` and ``nu`` on ``x >= 0``
  (both give 0 at the origin, so the function is well defined);
* ``custom``    -- a vectorized callable, never returning +inf.

Families are finite, deterministic collections of tilts, either explicit or
expanded from a parametric descriptor (grid of slopes, index range of the
built-in bump family).  ``doubled()`` returns a strictly larger family used
by the stability check of the abstract conjugate: every member of the
original family is kept, so suprema over the doubled family can only grow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .extreal import INF


@dataclass(frozen=True)
class TiltFunction:
    kind: str  # "linear" | "two_slope" | "custom"
    lam: float | None = None
    nu: float | None = None
    label: str = ""
    fn: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def linear(cls, lam: float) -> "TiltFunction":
        return cls(kind="linear", lam=float(lam), label=f"linear:{lam!r}")

    @classmethod
    def two_slope(cls, lam: float, nu: float) -> "TiltFunction":
        return cls(
            kind="two_slope", lam=float(lam), nu=float(nu),
            label=f"two_slope:{lam!r}:{nu!r}",
        )

    @classmethod
    def custom(cls, label: str, fn: Callable) -> "TiltFunction":
        return cls(kind="custom", label=label, fn=fn)

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if self.kind == "linear":
            return self.lam * xs
        if self.kind == "two_slope":
            return np.where(xs <= 0.0, self.lam * xs, self.nu * xs)
        out = np.asarray(self.fn(xs), dtype=float)
        if np.any(out == INF):
            raise ValueError(f"tilt {self.label} returned +inf")
        return out

    def __call__(self, x: float) -> float:
        return float(self.eval_array(np.array([x]))[0])


def q_bump_tilt(n: int) -> TiltFunction:
    """The drift-corrected bump ``x -> n |x| e^{-|x|} - x``."""
    if n < 1:
        raise ValueError("n must be at least 1")

    def fn(xs: np.ndarray) -> np.ndarray:
        a = np.abs(xs)
        return n * a * np.exp(-a) - xs

    return TiltFunction.custom(f"qn:{n}", fn)


@dataclass(frozen=True)
class TiltFamily:
    """Finite family of tilts plus the descriptor it was expanded from."""

    kind: str  # "linear" | "two_slope" | "qn" | "explicit" | "union"
    members: tuple[TiltFunction, ...]
    params: dict = field(default_factory=dict, compare=False)
    parts: tuple["TiltFamily", ...] = ()

    def __len__(self) -> int:
        return len(self.members)

    def doubled(self) -> "TiltFamily":
        if self.kind == "linear":
            lo, hi, res = self.params["lo"], self.params["hi"], self.params["resolution"]
            return linear_family(lo, hi, 2 * res + 1)
        if self.kind == "two_slope":
            p = self.params
            lam = _doubled_axis(p["lam_lo"], p["lam_hi"], p["resolution"])
            nu = _doubled_axis(p["nu_lo"], p["nu_hi"], p["resolution"])
            return _two_slope_from_axes(lam, nu, self.params, doubled=True)
        if self.kind == "qn":
            return qn_family(2 * self.params["n_max"])
        if self.kind == "union":
            return family_union(*[p.doubled() for p in self.parts])
        # explicit families cannot grow; doubling is the identity
        return self

    def slope_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Slopes ``(lam, nu)`` of every member on ``x <= 0`` and ``x > 0``.

        A linear member has ``lam == nu``; a custom member has NaN in both.
        """
        pairs = [
            (np.nan, np.nan) if m.kind == "custom"
            else (m.lam, m.lam if m.nu is None else m.nu)
            for m in self.members
        ]
        lam, nu = np.array(pairs, dtype=float).reshape(-1, 2).T
        return lam, nu

    def values_at(self, xs) -> np.ndarray:
        """``h(x)`` for every member (rows) and point of ``xs`` (columns)."""
        xs = np.asarray(xs, dtype=float)
        lam, nu = self.slope_pairs()
        out = np.where(xs <= 0.0, lam[:, None] * xs, nu[:, None] * xs)
        for i in np.flatnonzero(np.isnan(lam)):
            out[i] = self.members[i].eval_array(xs)
        return out

    def linear_part(self) -> "TiltFamily | None":
        """The linear sub-family, if one exists."""
        if self.kind == "linear":
            return self
        if self.kind == "union":
            for p in self.parts:
                found = p.linear_part()
                if found is not None:
                    return found
        return None


def linear_family(lo: float, hi: float, resolution: int) -> TiltFamily:
    """Evenly spaced linear tilts strictly inside the open interval (lo, hi).

    The slopes are ``lo + (hi-lo) * (i+1)/(resolution+1)`` for
    ``i = 0..resolution-1`` (endpoints excluded).
    """
    if not lo < hi:
        raise ValueError("interval must be nonempty")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    steps = np.arange(1, resolution + 1, dtype=float) / (resolution + 1)
    lambdas = lo + (hi - lo) * steps
    members = tuple(TiltFunction.linear(l) for l in lambdas)
    return TiltFamily(
        kind="linear",
        members=members,
        params={"lo": lo, "hi": hi, "resolution": resolution},
    )


def _doubled_axis(lo: float, hi: float, resolution: int) -> np.ndarray:
    orig = np.linspace(lo, hi, resolution)
    wide = np.linspace(2 * lo, 2 * hi, resolution)
    return np.unique(np.concatenate([orig, wide]))


def _two_slope_from_axes(lam_axis, nu_axis, base_params, doubled=False) -> TiltFamily:
    members = tuple(
        TiltFunction.two_slope(l, n) for l in lam_axis for n in nu_axis
    )
    params = dict(base_params)
    params["doubled"] = doubled
    return TiltFamily(kind="two_slope", members=members, params=params)


def two_slope_family(
    lam_range: tuple[float, float],
    nu_range: tuple[float, float],
    resolution: int,
) -> TiltFamily:
    """Cartesian grid of two-slope tilts over closed parameter ranges."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    lam_axis = np.linspace(lam_range[0], lam_range[1], resolution)
    nu_axis = np.linspace(nu_range[0], nu_range[1], resolution)
    return _two_slope_from_axes(
        lam_axis,
        nu_axis,
        {
            "lam_lo": lam_range[0], "lam_hi": lam_range[1],
            "nu_lo": nu_range[0], "nu_hi": nu_range[1],
            "resolution": resolution,
        },
    )


def qn_family(n_max: int) -> TiltFamily:
    """The bump tilts Q_1 .. Q_{n_max}."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    members = tuple(q_bump_tilt(n) for n in range(1, n_max + 1))
    return TiltFamily(kind="qn", members=members, params={"n_max": n_max})


def family_union(*families: TiltFamily) -> TiltFamily:
    members = tuple(m for f in families for m in f.members)
    return TiltFamily(kind="union", members=members, parts=tuple(families))


def explicit_family(members) -> TiltFamily:
    return TiltFamily(kind="explicit", members=tuple(members))
