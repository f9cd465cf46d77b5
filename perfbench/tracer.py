"""In-memory span tracer installed around ldpkit's public functions.

The tracer wraps, from outside the package, every public module-level
function of the traced ldpkit modules, plus the three methods that carry a
layer's work: ``ScaledMeasureNet.measure`` (cache hit or miss),
``FiniteSupportMeasure.log_mass_in_open_interval`` (one ball-mass query) and
``TiltFamily.doubled`` (a family build).  Each wrapper is installed in the
defining module *and* in every ``ldpkit`` module that imported the name, so
calls between ldpkit modules are seen too.  Nothing under ``src/`` changes.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (``-1`` at the root).  The program is single-threaded at
``--threads 1``, so a plain stack gives the parent.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

TRACED_MODULES = (
    "cli",
    "scenario",
    "pipeline",
    "measures",
    "tilts",
    "free_energy",
    "conjugate",
    "convex",
    "verifier",
)

# (module, class, method) wrapped in addition to the module-level functions
TRACED_METHODS = (
    ("measures", "ScaledMeasureNet", "measure"),
    ("measures", "FiniteSupportMeasure", "log_mass_in_open_interval"),
    ("tilts", "TiltFamily", "doubled"),
)

# calls whose arguments are kept (by reference) for the computed counts
RECORDED_CALLS = ("free_energy.lambda_family_table", "verifier.rate_grid")

# spans of this method are named "<MEASURE_SPAN>:hit" or "<MEASURE_SPAN>:miss"
MEASURE_SPAN = "measures.ScaledMeasureNet.measure"


class Tracer:
    """Collects spans for one operation at a time."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: list[tuple[str, inspect.BoundArguments]] = []
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self.calls = []
        self._stack = []

    def _wrap(self, name: str, fn):
        record_args = name in RECORDED_CALLS
        signature = inspect.signature(fn) if record_args else None
        is_measure = name == MEASURE_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name
            if is_measure:  # ScaledMeasureNet.measure(self, k)
                cache = getattr(args[0], "_cache", None)
                k = args[1] if len(args) > 1 else kwargs["k"]
                label += ":hit" if cache is not None and k in cache else ":miss"
            stack = self._stack
            span = [label, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(self.spans))
            self.spans.append(span)
            if record_args:
                self.calls.append((name, signature.bind(*args, **kwargs)))
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Patch the wrappers in for the duration of the block, then restore."""
        package = sys.modules["ldpkit"]
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "ldpkit" or n.startswith("ldpkit.")]
        patches = []  # (owner, attribute, original)
        for short in TRACED_MODULES:
            module = getattr(package, short, None)
            if module is None:
                continue
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{attr}", obj)
                for owner in loaded:
                    for alias, value in list(vars(owner).items()):
                        if value is obj:
                            patches.append((owner, alias, obj))
                            setattr(owner, alias, wrapper)
        for short, cls_name, method in TRACED_METHODS:
            cls = getattr(getattr(package, short, None), cls_name, None)
            original = vars(cls).get(method) if cls is not None else None
            if original is None:
                continue
            patches.append((cls, method, original))
            setattr(cls, method, self._wrap(f"{short}.{cls_name}.{method}", original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def inclusive_time(spans: list[list], names) -> float:
    """Seconds inside spans named in ``names``; a span nested in another counts once."""
    names = set(names)
    nested = [False] * len(spans)  # some ancestor is named in ``names``
    total = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        nested[i] = parent >= 0 and (nested[parent] or spans[parent][0] in names)
        if name in names and not nested[i]:
            total += end - start
    return total
