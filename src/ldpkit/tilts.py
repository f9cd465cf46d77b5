"""Tilt functions and families.

A tilt is the test function ``h`` inside the powered exponential integral
``mu^t(exp(h/t))``.  Three kinds are supported:

* ``linear``    -- ``h(x) = lam * x``;
* ``two_slope`` -- slope ``lam`` on ``x <= 0`` and ``nu`` on ``x >= 0``
  (both give 0 at the origin, so the function is well defined);
* ``custom``    -- an elementwise vectorized callable, never returning +inf
  (it may be called on the atoms of many measures at once).

Families are finite, deterministic collections of tilts, either explicit or
expanded from a parametric descriptor (grid of slopes, index range of the
built-in bump family).  A family is two read-only slope arrays (NaN for
custom tilts) plus, for ``qn`` and explicit families, the member objects it
was built from; ``members`` and ``labels()`` are built only when asked.
``doubled()`` returns a strictly larger family used by the stability check
of the abstract conjugate: every member of the original family is kept, so
suprema over the doubled family can only grow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .convex import _reprs
from .extreal import INF


def _label(lam, nu=None) -> str:
    # ``!r`` of a numpy scalar reads ``np.float64(...)``; the goldens pin it
    return f"linear:{lam!r}" if nu is None else f"two_slope:{lam!r}:{nu!r}"


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
        return cls(kind="linear", lam=float(lam), label=_label(lam))

    @classmethod
    def two_slope(cls, lam: float, nu: float) -> "TiltFunction":
        return cls(
            kind="two_slope", lam=float(lam), nu=float(nu), label=_label(lam, nu)
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


def q_bump_tilt(n: int) -> TiltFunction:
    """The drift-corrected bump ``x -> n |x| e^{-|x|} - x``."""
    if n < 1:
        raise ValueError("n must be at least 1")

    def fn(xs: np.ndarray) -> np.ndarray:
        a = np.abs(xs)
        return n * a * np.exp(-a) - xs

    return TiltFunction.custom(f"qn:{n}", fn)


@dataclass(frozen=True, eq=False)
class TiltFamily:
    """Finite family of tilts plus the descriptor it was expanded from.

    Member ``i`` has slope ``lam[i]`` on ``x <= 0`` and ``nu[i]`` on
    ``x > 0``; both are NaN for a custom member.  ``given`` holds the member
    objects of ``qn`` and explicit families.
    """

    kind: str  # "linear" | "two_slope" | "qn" | "explicit" | "union"
    lam: np.ndarray
    nu: np.ndarray
    params: dict = field(default_factory=dict)
    parts: tuple["TiltFamily", ...] = ()
    given: tuple[TiltFunction, ...] = ()

    def __post_init__(self):
        for name in ("lam", "nu"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.lam.size

    @cached_property
    def members(self) -> tuple[TiltFunction, ...]:
        """Every member as a :class:`TiltFunction`, built on first use."""
        if self.kind == "linear":
            return tuple(TiltFunction.linear(l) for l in self.lam)
        if self.kind == "two_slope":
            return tuple(TiltFunction.two_slope(l, n) for l, n in zip(self.lam, self.nu))
        if self.kind == "union":
            return tuple(m for p in self.parts for m in p.members)
        return self.given

    @cached_property
    def custom(self) -> tuple[TiltFunction, ...]:
        """The members with NaN slopes, in member order."""
        if self.kind == "union":
            return tuple(m for p in self.parts for m in p.custom)
        return tuple(self.given[i] for i in np.flatnonzero(np.isnan(self.lam)))

    def labels(self) -> list[str]:
        """``[m.label for m in self.members]``, without building the members."""
        if self.kind == "linear":
            return ["linear:" + l for l in _reprs(self.lam, scalars=True)]
        if self.kind == "two_slope":
            lam, nu = _reprs(self.lam, scalars=True), _reprs(self.nu, scalars=True)
            return [f"two_slope:{l}:{n}" for l, n in zip(lam, nu)]
        if self.kind == "union":
            return [s for p in self.parts for s in p.labels()]
        return [m.label for m in self.given]

    def doubled(self) -> "TiltFamily":
        if self.kind == "linear":
            lo, hi, res = self.params["lo"], self.params["hi"], self.params["resolution"]
            return linear_family(lo, hi, 2 * res + 1)
        if self.kind == "two_slope":
            p = self.params
            lam = _doubled_axis(p["lam_lo"], p["lam_hi"], p["resolution"])
            nu = _doubled_axis(p["nu_lo"], p["nu_hi"], p["resolution"])
            return _two_slope_from_axes(lam, nu, self.params)
        if self.kind == "qn":
            return qn_family(2 * self.params["n_max"])
        if self.kind == "union":
            return family_union(*[p.doubled() for p in self.parts])
        # explicit families cannot grow; doubling is the identity
        return self


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
    return TiltFamily(
        kind="linear",
        lam=lambdas,
        nu=lambdas,
        params={"lo": lo, "hi": hi, "resolution": resolution},
    )


def _doubled_axis(lo: float, hi: float, resolution: int) -> np.ndarray:
    orig = np.linspace(lo, hi, resolution)
    wide = np.linspace(2 * lo, 2 * hi, resolution)
    return np.unique(np.concatenate([orig, wide]))


def _two_slope_from_axes(lam_axis, nu_axis, params) -> TiltFamily:
    # member order: lam outer, nu inner
    lam, nu = np.meshgrid(lam_axis, nu_axis, indexing="ij")
    return TiltFamily(kind="two_slope", lam=lam.ravel(), nu=nu.ravel(), params=params)


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


def _family_of_members(kind: str, members, params: dict | None = None) -> TiltFamily:
    members = tuple(members)
    pairs = [
        (np.nan, np.nan) if m.kind == "custom"
        else (m.lam, m.lam if m.nu is None else m.nu)
        for m in members
    ]
    lam, nu = np.array(pairs, dtype=float).reshape(-1, 2).T
    return TiltFamily(kind=kind, lam=lam, nu=nu, params=params or {}, given=members)


def qn_family(n_max: int) -> TiltFamily:
    """The bump tilts Q_1 .. Q_{n_max}."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    members = [q_bump_tilt(n) for n in range(1, n_max + 1)]
    return _family_of_members("qn", members, {"n_max": n_max})


def family_union(*families: TiltFamily) -> TiltFamily:
    return TiltFamily(
        kind="union",
        lam=np.concatenate([np.empty(0), *(f.lam for f in families)]),
        nu=np.concatenate([np.empty(0), *(f.nu for f in families)]),
        parts=tuple(families),
    )


def explicit_family(members) -> TiltFamily:
    return _family_of_members("explicit", members)
