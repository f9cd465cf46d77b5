"""Extended-real conventions used throughout the package.

Values live in [-inf, +inf] represented as Python/NumPy floats.  Two values
are at distance 0 when both are the same infinity, at distance +inf when
exactly one is infinite, and at their absolute difference otherwise
(``ext_abs_diff``); ``ext_sub`` is the signed difference with the same 0
between equal infinities.  Both take numbers or arrays, elementwise.
"""

from __future__ import annotations

import numpy as np

INF = float("inf")
NEG_INF = float("-inf")


def ext_abs_diff(a, b):
    """|a - b| treating equal infinities as distance 0, mixed as +inf."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        d = np.where(np.isfinite(a) & np.isfinite(b), np.abs(a - b), INF)
    return np.where(a == b, 0.0, d)[()]


def ext_sub(a, b):
    """``a - b`` with equal infinities (and ``+-0.0``) at difference 0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        d = a - b
    return np.where(a == b, 0.0, d)[()]
