"""Abstract Legendre-Fenchel transform over finite tilt families.

Given free-energy values ``F(h)`` for every member ``h`` of a family, the
abstract conjugate at ``x`` is ``sup_h ( h(x) - F(h) )``.  Members whose
free energy is ``+inf`` contribute ``-inf`` and drop out of the sup;
members with free energy ``-inf`` make the sup ``+inf`` unless the tilt is
itself ``-inf`` at ``x``.

No members x points matrix is built: on ``x <= 0`` a member with slopes
``(lam, nu)`` is ``lam * x``, so the sup there is the max over the distinct
``lam`` of ``lam * x - min F`` (likewise with ``nu`` on ``x > 0``).  Rounding
is monotone, so this equals the max over members; an ``n x n`` two-slope
grid costs ``2n`` rows, and custom members keep one row each.

Since families are finite truncations of (usually) infinite ones, a raw
finite sup may just mean "growing with the truncation bound".  The
stability layer re-evaluates the sup over a doubled family and declares
``+inf`` wherever the value keeps growing; values that stabilize are kept.

Both transforms take the family together with the :class:`FamilyTable`
that :func:`lambda_family_table` returns for it, so a table computed once
serves every caller; ``stable_abstract_lf`` evaluates only the doubled
family itself.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .convex import GridFunction
from .extreal import INF, NEG_INF, ext_sub
from .free_energy import FamilyTable, NotConverged, WindowSpec, lambda_family_table
from .measures import ScaledMeasureNet
from .scenario import Tolerances
from .tilts import TiltFamily

GROWTH_CAP = 1e6


def _sup_over_rows(H: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``max_i (H[i] - F[i])`` over finite ``F``, and where an ``F = -inf`` row
    lies above ``-inf`` (those points are forced to ``+inf``).  Overwrites ``H``."""
    force = np.any(H[np.isneginf(F)] > NEG_INF, axis=0)
    finite = np.isfinite(F)
    if not finite.all():
        H, F = H[finite], F[finite]
    H -= F[:, None]  # in place: a second matrix this size is page-faulted in afresh
    return np.max(H, axis=0, initial=NEG_INF), force


def abstract_lf(family: TiltFamily, table: FamilyTable, x_grid: Sequence[float]) -> GridFunction:
    """Raw abstract conjugate ``sup_h (h(x) - F(h))`` over the family.

    ``table`` is the family's :func:`lambda_family_table`; every member's
    free energy must exist (converge, possibly to +-inf).  The raw
    definition is returned with no truncation-stability correction.
    Sloped members are grouped by their slope on each side of the origin
    (see the module docstring); custom members are evaluated row by row.
    """
    if len(family) != len(table):
        raise ValueError("family and estimates must have matching lengths")
    if not table.converged.all():
        bad = int(np.count_nonzero(~table.converged))
        raise NotConverged(f"{bad} family member(s) have no converged free energy")
    xs = np.asarray(x_grid, dtype=float)
    F = table.value
    lam, nu = family.lam, family.nu
    sloped = ~np.isnan(lam)
    left = xs <= 0.0
    vals = np.empty(xs.shape)
    force = np.empty(xs.shape, dtype=bool)
    for slopes, cols in ((lam[sloped], left), (nu[sloped], ~left)):
        axis, at = np.unique(slopes, return_inverse=True)
        best = np.full(axis.size, INF)  # min F per slope; NaN never wins
        np.fmin.at(best, at, F[sloped])
        vals[cols], force[cols] = _sup_over_rows(axis[:, None] * xs[cols], best)
    if family.custom:
        H = np.array([member.eval_array(xs) for member in family.custom])
        sup, neg = _sup_over_rows(H, F[~sloped])
        vals = np.maximum(vals, sup)
        force |= neg
    return GridFunction(xs, np.where(force, INF, vals), label="abstract-conjugate")


def stable_abstract_lf(
    net: ScaledMeasureNet,
    family: TiltFamily,
    table: FamilyTable,
    x_grid: Sequence[float],
    window: WindowSpec,
    tol: float = Tolerances.convergence,
    divergence_threshold: float = Tolerances.divergence_threshold,
    stability_tol: float = Tolerances.stability,
) -> GridFunction:
    """Abstract conjugate with the family-doubling stability check.

    Evaluates the raw conjugate over the family, from its ``table``, and
    over ``family.doubled()`` (a superset, so the sup can only grow), whose
    table is computed here.  Entries that grow by more than
    ``stability_tol`` or exceed ``GROWTH_CAP`` are flagged in the bool
    array ``meta["flagged"]`` and reported as ``+inf``; entries that
    stabilize keep the requested family's value.
    """
    xs = np.asarray(x_grid, dtype=float)
    wide_family = family.doubled()
    wide_table = lambda_family_table(net, wide_family, window, tol, divergence_threshold)
    raw = abstract_lf(family, table, xs).values
    wide = abstract_lf(wide_family, wide_table, xs).values
    growth = ext_sub(wide, raw)
    flagged = (growth > stability_tol) | (raw > GROWTH_CAP) | np.isposinf(raw)
    return GridFunction(
        xs,
        np.where(flagged, INF, raw),
        label="abstract-conjugate",
        meta={"flagged": flagged},
    )
