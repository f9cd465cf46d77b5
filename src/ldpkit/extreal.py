"""Extended-real conventions used throughout the package.

Values live in [-inf, +inf] represented as Python/NumPy floats.  Two values
are at distance 0 when both are the same infinity, at distance +inf when
exactly one is infinite, and at their absolute difference otherwise
(``ext_abs_diff``).
"""

from __future__ import annotations

import math

INF = float("inf")
NEG_INF = float("-inf")


def ext_abs_diff(a: float, b: float) -> float:
    """|a - b| treating equal infinities as distance 0, mixed as +inf."""
    if a == b:
        # covers inf == inf and -inf == -inf
        return 0.0
    if not math.isfinite(a) or not math.isfinite(b):
        return INF
    return abs(a - b)
