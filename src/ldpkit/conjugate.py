"""Abstract Legendre-Fenchel transform over finite tilt families.

Given free-energy values ``F(h)`` for every member ``h`` of a family, the
abstract conjugate at ``x`` is ``sup_h ( h(x) - F(h) )``.  Members whose
free energy is ``+inf`` contribute ``-inf`` and drop out of the sup;
members with free energy ``-inf`` make the sup ``+inf`` unless the tilt is
itself ``-inf`` at ``x``.

Since families are finite truncations of (usually) infinite ones, a raw
finite sup may just mean "growing with the truncation bound".  The
stability layer re-evaluates the sup over a doubled family and declares
``+inf`` wherever the value keeps growing; values that stabilize are kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .convex import GridFunction, lf_transform
from .extreal import INF, NEG_INF
from .free_energy import (
    DEFAULT_DIVERGENCE_THRESHOLD,
    DEFAULT_TOL,
    FamilyTable,
    LimitEstimate,
    WindowSpec,
    lambda_family_table,
)
from .measures import ScaledMeasureNet
from .tilts import TiltFamily

DEFAULT_STABILITY_TOL = 1e-3
DEFAULT_GROWTH_CAP = 1e6


@dataclass(frozen=True)
class FamilyEvaluation:
    """A tilt family together with its table of free-energy estimates."""

    family: TiltFamily
    table: FamilyTable

    def __post_init__(self):
        if len(self.family) != len(self.table):
            raise ValueError("family and estimates must have matching lengths")

    @property
    def all_exist(self) -> bool:
        """Every member converged (possibly to +-inf)."""
        return bool(self.table.converged.all())

    @property
    def values(self) -> np.ndarray:
        return self.table.value

    @cached_property
    def lambdas(self) -> tuple[LimitEstimate, ...]:
        """Every member's estimate, built on first use."""
        return tuple(self.table.estimate(i) for i in range(len(self.table)))


def evaluate_family(
    net: ScaledMeasureNet,
    family: TiltFamily,
    window: WindowSpec,
    tol: float = DEFAULT_TOL,
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
) -> FamilyEvaluation:
    table = lambda_family_table(net, family, window, tol, divergence_threshold)
    return FamilyEvaluation(family, table)


def abstract_lf(fe: FamilyEvaluation, x_grid: Sequence[float]) -> GridFunction:
    """Raw abstract conjugate ``sup_h (h(x) - F(h))`` over the family.

    Requires every member's free energy to exist (``fe.all_exist``); the
    raw definition is returned with no truncation-stability correction.
    """
    if not fe.all_exist:
        bad = int(np.count_nonzero(~fe.table.converged))
        raise ValueError(f"{bad} family member(s) have no converged free energy")
    xs = np.asarray(x_grid, dtype=float)
    H = fe.family.values_at(xs)
    F = fe.values
    vals = np.full(xs.shape, NEG_INF)

    finite = np.isfinite(F)
    if finite.any():
        vals = np.max(H[finite, :] - F[finite, None], axis=0, initial=NEG_INF)
    # F = +inf members contribute -inf: skip.  F = -inf members force +inf
    # unless the tilt itself is -inf at x.
    neg = np.isneginf(F)
    if neg.any():
        force = np.any(H[neg, :] > NEG_INF, axis=0)
        vals = np.where(force, INF, vals)
    return GridFunction(xs, vals, label="abstract-conjugate")


def linear_restriction_conjugate(
    fe: FamilyEvaluation, x_grid: Sequence[float]
) -> GridFunction:
    """Classical conjugate of the sampled free energy of a linear family.

    Builds the grid function ``lam -> F(h_lam)`` (+inf where the estimate
    diverged) and applies :func:`lf_transform`; this is the cross-check
    path against :func:`abstract_lf` on the same family.
    """
    lambdas, nus = fe.family.slope_pairs()
    if not np.array_equal(lambdas, nus):
        raise ValueError("linear_restriction_conjugate needs a family of linear tilts")
    if not fe.all_exist:
        raise ValueError("family has members with no converged free energy")
    L = GridFunction(lambdas, fe.values, label="L")
    return lf_transform(L, x_grid).with_label("linear-restriction-conjugate")


@dataclass(frozen=True)
class StableConjugate:
    """Abstract conjugate with truncation-stability flags.

    ``values`` equal the requested family's raw conjugate where stable and
    ``+inf`` where doubling the family kept growing the sup (or the raw
    value already exceeded the cap).
    """

    grid: GridFunction
    raw: np.ndarray
    doubled: np.ndarray
    flagged: np.ndarray

    @property
    def values(self) -> np.ndarray:
        return self.grid.values


def stable_abstract_lf(
    net: ScaledMeasureNet,
    family: TiltFamily,
    x_grid: Sequence[float],
    window: WindowSpec,
    tol: float = DEFAULT_TOL,
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
    stability_tol: float = DEFAULT_STABILITY_TOL,
    growth_cap: float = DEFAULT_GROWTH_CAP,
    fe: FamilyEvaluation | None = None,
    fe_doubled: FamilyEvaluation | None = None,
) -> StableConjugate:
    """Abstract conjugate with the family-doubling stability check.

    Evaluates the raw conjugate over the family and over ``family.doubled()``
    (a superset, so the sup can only grow).  Entries that grow by more than
    ``stability_tol`` or exceed ``growth_cap`` are flagged and reported as
    ``+inf``; entries that stabilize keep the requested family's value.
    Pre-computed family evaluations may be passed to avoid recomputation.
    """
    xs = np.asarray(x_grid, dtype=float)
    fe1 = fe or evaluate_family(net, family, window, tol, divergence_threshold)
    fe2 = fe_doubled or evaluate_family(
        net, family.doubled(), window, tol, divergence_threshold
    )
    raw = abstract_lf(fe1, xs).values
    wide = abstract_lf(fe2, xs).values
    with np.errstate(invalid="ignore"):
        growth = wide - raw
    growth = np.where(wide == raw, 0.0, growth)  # covers equal infinities
    flagged = (growth > stability_tol) | (raw > growth_cap) | np.isposinf(raw)
    vals = np.where(flagged, INF, raw)
    grid = GridFunction(
        xs,
        vals,
        label="abstract-conjugate",
        meta={
            "stability_tol": stability_tol,
            "growth_cap": growth_cap,
            "flagged": flagged.tolist(),
        },
    )
    return StableConjugate(grid=grid, raw=raw, doubled=wide, flagged=flagged)
