"""Scenario files: flat sectioned key-value configs for the batch runner.

The grammar is INI-style (``configparser``): sections in brackets, one
``key = value`` per line, ``#``/``;`` comments.  No expression language.
See the README for the full key reference.

:func:`load_scenario` parses, validates and defaults every setting, the
``[checks]`` parameters included (:class:`CheckParams`), so the pipeline
reads typed fields only.  The reader is also the schema: each section
reader records the keys it reads, and after the last read a section that
no reader opened, or a key that nothing read, is an error.  So a key is
accepted only where the program reads it (``[net] p`` only on an
``iid-bernoulli`` net).  Every error names the file, and the section and
key it came from, as ``<file>: [section] key: message``.
"""

from __future__ import annotations

import configparser
import math
import sys
from dataclasses import dataclass, field

from .measures import RegionSet
from .tilts import TiltFunction, q_bump_tilt

NET_KINDS = ("coin", "dem-zei", "iid-bernoulli")
FAMILY_KINDS = ("two-slope", "linear", "qn-plus-linear")

WINDOW_SAMPLES = 48  # geometric samples per tail window
DELTA_COUNT = 10  # the rate grid's ball radius is 2^-DELTA_COUNT
MAX_DELTA_COUNT = 1074  # 2^-1075 rounds to 0.0
MAX_COUNT = sys.maxsize - 1  # a net's indices run through range(1, max_index + 1)
# |value| bound on every tilt slope and every lambda-grid, family, two_slope_*
# and sub_* end.  It keeps the tilt kernel's slope * atom / t finite (atoms and
# 1/t stay below MAX_COUNT < 1e19) and the hull's cross products
# (v2 - v1) * (x - x1), whose L values are at most slope * atom.
MAX_SLOPE = 1e100
_SLOPES = (-MAX_SLOPE, MAX_SLOPE)

KNOWN_CHECKS = (
    "vague-ldp",
    "exp-tight",
    "ldp-bounds",
    "varadhan",
    "derivative-bound",
    "sandwich",
    "conjugate-consistency",
    "rate-compare",
    "range-dom-l0-filtered",
    "range-dom-l0",
    "range-dom-abstract-filtered",
    "range-dom-abstract",
    "range-int-dom-l0-filtered",
    "range-int-dom-l0",
    "range-int-dom-abstract-filtered",
    "range-int-dom-abstract",
    "gartner-ellis-a",
    "gartner-ellis-b",
    "gartner-ellis-b-sub",
    "ellis-two-slope",
)


class ScenarioError(ValueError):
    """Raised for malformed scenario files, with section/key context."""


@dataclass(frozen=True)
class WindowConfig:
    t_max: float
    t_min: float
    samples: int

    def __post_init__(self):
        if not 0 < self.t_min < self.t_max < math.inf:
            raise ScenarioError("needs 0 < t_min < t_max < inf")
        if self.samples < 2:
            raise ScenarioError("samples must be >= 2")


@dataclass(frozen=True)
class GridConfig:
    lo: float
    hi: float
    resolution: int


@dataclass(frozen=True)
class Tolerances:
    convergence: float = 1e-6
    value: float = 1e-3
    ldp: float = 1e-3
    equality: float = 1e-3
    bounds: float = 1e-6
    sandwich_slack: float = 1e-6
    stability: float = 1e-3
    filter: float = 1e-9
    divergence_threshold: float = 1e12
    derivative_bound: float = 1e-3

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ScenarioError(f"tolerance {name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class CheckParams:
    """The ``[checks]`` parameters, parsed at load; each default is here.

    ``sub_G`` is the sub-interval G' of ``gartner-ellis-b-sub``, which
    requires it.  ``regions`` holds the ``(RegionSet, "open" | "closed")``
    pairs of ``ldp-bounds`` and ``two_slope`` the ``(lo, hi, resolution)``
    of the auxiliary family of ``ellis-two-slope``.
    """

    sub_G: tuple[float, float] | None = None
    eps_list: tuple[float, ...] = (0.1, 0.01)
    r_schedule: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)
    regions: tuple[tuple[RegionSet, str], ...] = ()
    varadhan_tilts: tuple[TiltFunction, ...] = ()
    two_slope: tuple[float, float, int] = (-4.0, 4.0, 41)


@dataclass(frozen=True)
class Scenario:
    name: str  # [output] prefix: names the scenario and prefixes each output file
    net_kind: str
    net_params: dict
    window: WindowConfig
    rate_window: WindowConfig
    lambda_grid: GridConfig
    wide_lambda_grid: GridConfig | None
    family_kind: str
    family_params: dict
    x_lo: float
    x_hi: float
    x_points: int
    include_l_slopes: bool
    delta_count: int
    tolerances: Tolerances
    run_checks: tuple[str, ...]
    informational_checks: tuple[str, ...]
    check_params: CheckParams
    # the flag that replaced a setting, by the name a run-time error gives the
    # setting ("[tolerances] convergence", "[window]"); such errors name the flag
    flags: dict = field(default_factory=dict, compare=False)

    def all_checks(self) -> tuple[str, ...]:
        return tuple(self.run_checks) + tuple(
            c for c in self.informational_checks if c not in self.run_checks
        )


def _number(text, above: float = -math.inf, below: float = math.inf) -> float:
    """``text`` as a finite float in ``(above, below)``: every number read from
    a scenario file or a flag is converted here, and its caller names the source."""
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise ValueError(f"not a number: {text!r}") from None
    if not above < value < below:  # also false for nan and +-inf
        raise ValueError(f"must lie in ({above}, {below}), got {value}" if math.isfinite(value)
                         else f"not a finite number: {text!r}")
    return value


def _integer(text, least: int = 1, most: int = MAX_COUNT) -> int:
    """``text`` as an integer in ``least..most``."""
    try:
        value = int(str(text))
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None
    if value < least:
        raise ValueError(f"must be >= {least}, got {value}")
    if value > most:
        raise ValueError(f"must be <= {most}, got {value}")
    return value


def parse_tilt_label(label: str) -> TiltFunction:
    parts = label.strip().split(":")
    kind = parts[0]
    try:
        if kind == "linear" and len(parts) == 2:
            return TiltFunction.linear(_number(parts[1], *_SLOPES))
        if kind == "two_slope" and len(parts) == 3:
            return TiltFunction.two_slope(_number(parts[1], *_SLOPES), _number(parts[2], *_SLOPES))
        if kind == "qn" and len(parts) == 2:
            return q_bump_tilt(_integer(parts[1]))
    except ValueError as exc:
        raise ScenarioError(f"bad tilt spec {label!r}: {exc}") from exc
    raise ScenarioError(f"bad tilt spec {label!r}")


def parse_region_spec(spec: str) -> tuple[RegionSet, str]:
    parts = spec.strip().split(":")
    if len(parts) != 3 or parts[0] not in ("open", "closed"):
        raise ScenarioError(f"bad region spec {spec!r} (want open:lo:hi)")
    lo, hi = _number(parts[1]), _number(parts[2])
    region = RegionSet.open(lo, hi) if parts[0] == "open" else RegionSet.closed(lo, hi)
    return region, parts[0]


class _SectionReader:
    """Typed reads of one section; each key read is added to ``keys_read``."""

    def __init__(self, parser: configparser.ConfigParser, section: str, path: str,
                 keys_read: dict[str, set[str]]):
        self.parser = parser
        self.section = section
        self.path = path
        self.keys_read = keys_read.setdefault(section, set())

    def error(self, key: str, message: str) -> ScenarioError:
        return ScenarioError(f"{self.path}: [{self.section}] {key}: {message}")

    def has(self, key: str) -> bool:
        return self.parser.has_option(self.section, key)

    def raw(self, key: str, default=None):
        if not self.has(key):
            if default is not None:
                return default
            raise self.error(key, "missing required key")
        self.keys_read.add(key)
        return self.parser.get(self.section, key)

    def text(self, key: str, default: str | None = None) -> str:
        return str(self.raw(key, default)).strip()

    def convert(self, key: str, default, parse, *bounds):
        raw = self.raw(key, default)
        try:
            return parse(raw, *bounds)
        except ValueError as exc:
            raise self.error(key, str(exc)) from exc

    def number(self, key: str, default=None, above=-math.inf, below=math.inf) -> float:
        return self.convert(key, default, _number, above, below)

    def integer(self, key: str, default=None, least=1, most=MAX_COUNT) -> int:
        return self.convert(key, default, _integer, least, most)

    def span(self, lo_key: str, hi_key: str, above=-math.inf, below=math.inf, default=None):
        """``(lo, hi)``, ``above < lo < hi < below``; ``hi`` defaults to ``-lo``."""
        lo = self.number(lo_key, default, above, below)
        return lo, self.number(hi_key, None if default is None else -lo, lo, below)

    def choice(self, key: str, options: tuple[str, ...]) -> str:
        value = self.text(key)
        if value not in options:
            raise self.error(key, f"must be one of {', '.join(options)}, got {value!r}")
        return value

    def entries(self, key: str, parse=str, *bounds, default: tuple = ()) -> tuple:
        """``parse(entry, *bounds)`` of each entry of a comma-separated list;
        ``default`` if absent."""
        if not self.has(key):
            return default
        return self.convert(key, None, lambda raw: tuple(
            [parse(tok.strip(), *bounds) for tok in raw.split(",") if tok.strip()]
        ))

    def boolean(self, key: str, default: bool) -> bool:
        if not self.has(key):
            return default
        raw = self.text(key).lower()
        if raw in ("true", "yes", "1"):
            return True
        if raw in ("false", "no", "0"):
            return False
        raise self.error(key, f"not a boolean: {raw!r}")

    def check_names(self, key: str) -> tuple[str, ...]:
        """A comma-separated list of check ids, each in KNOWN_CHECKS."""
        names = self.entries(key)
        for name in names:
            if name not in KNOWN_CHECKS:
                raise self.error(
                    key, f"unknown check {name!r}; known: {', '.join(KNOWN_CHECKS)}"
                )
        return names


def _window_from(reader: _SectionReader, defaults: WindowConfig | None = None) -> WindowConfig:
    if defaults is not None and not reader.parser.has_section(reader.section):
        return defaults
    t_min, t_max = reader.span("t_min", "t_max", above=0)
    return WindowConfig(t_max, t_min, reader.integer("samples", WINDOW_SAMPLES, least=2))


def _check_params(ch: _SectionReader, checks: tuple[str, ...]) -> CheckParams:
    """The ``[checks]`` parameters; ``checks`` are the requested check ids."""
    sub_G = None
    if "gartner-ellis-b-sub" in checks or ch.has("sub_lo") or ch.has("sub_hi"):
        sub_G = ch.span("sub_lo", "sub_hi", *_SLOPES)
    lo, _, resolution = CheckParams.two_slope
    return CheckParams(
        sub_G=sub_G,
        eps_list=ch.entries("eps_list", _number, 0, default=CheckParams.eps_list),
        r_schedule=ch.entries("r_schedule", _number, 0, default=CheckParams.r_schedule),
        regions=ch.entries("regions", parse_region_spec),
        varadhan_tilts=ch.entries("varadhan_tilts", parse_tilt_label),
        two_slope=(*ch.span("two_slope_lo", "two_slope_hi", *_SLOPES, default=lo),
                   ch.integer("two_slope_resolution", resolution, least=2)),
    )


def load_scenario(path) -> Scenario:
    # no interpolation: a '%' in a value is a plain character
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    path = str(path)
    try:
        read = parser.read(path)
    except configparser.Error as exc:  # repeated section or key, no header
        raise ScenarioError(f"{path}: {exc}") from exc
    if not read:
        raise ScenarioError(f"cannot read scenario file {path}")

    for required in ("net", "window", "lambda-grid", "family", "x-grid", "output"):
        if not parser.has_section(required):
            raise ScenarioError(f"{path}: missing required section [{required}]")

    keys_read: dict[str, set[str]] = {}

    def section(name: str) -> _SectionReader:
        return _SectionReader(parser, name, path, keys_read)

    net = section("net")
    net_kind = net.choice("kind", NET_KINDS)
    if net_kind == "iid-bernoulli":
        net_params = {"max_n": net.integer("max_n", 8192, least=2), "p": net.number("p", 0.5, 0, 1)}
    else:
        net_params = {"max_index": net.integer("max_index", 1_000_000, least=2)}

    window = _window_from(section("window"))
    rate_window = _window_from(section("rate-window"), window)

    def grid_from(name: str) -> GridConfig:
        r = section(name)
        return GridConfig(*r.span("lo", "hi", *_SLOPES), r.integer("resolution", least=2))

    lambda_grid = grid_from("lambda-grid")
    wide = grid_from("wide-lambda-grid") if parser.has_section("wide-lambda-grid") else None

    fam = section("family")
    family_kind = fam.choice("kind", FAMILY_KINDS)
    if family_kind in ("two-slope", "linear"):
        lo, hi = fam.span("lo", "hi", *_SLOPES)
        family_params = {"lo": lo, "hi": hi, "resolution": fam.integer("resolution", least=2)}
    else:  # qn-plus-linear: the linear part reuses the lambda grid
        family_params = {"n_max": fam.integer("n_max", 10)}

    xg = section("x-grid")
    x_lo, x_hi = xg.span("lo", "hi")
    x_points = xg.integer("points", least=2)
    include_l_slopes = xg.boolean("include_l_slopes", False)

    deltas = section("deltas")  # also without [deltas]
    delta_count = deltas.integer("count", DELTA_COUNT, most=MAX_DELTA_COUNT)
    # a radius that rounds away beside the grid leaves every ball empty
    x_max = max(abs(x_lo), abs(x_hi))
    if x_max + 2.0 ** -delta_count == x_max:
        raise deltas.error("count", f"{delta_count} gives a ball radius 2^-{delta_count} that "
                           f"vanishes beside the [x-grid] value {x_max} (x + r == x)")

    tr = section("tolerances")
    tolerances = Tolerances(**{
        key: tr.number(key, above=0) for key in Tolerances.__dataclass_fields__ if tr.has(key)
    })

    ch = section("checks")
    run_checks = ch.check_names("run")
    informational = ch.check_names("informational")
    check_params = _check_params(ch, run_checks + informational)

    prefix = section("output").text("prefix")

    # the reads above are the schema: whatever they left unread is unknown
    for name in parser.sections():
        if name not in keys_read:
            raise ScenarioError(f"{path}: unknown section [{name}]")
        for key in parser.options(name):
            if key not in keys_read[name]:
                raise ScenarioError(f"{path}: [{name}] unknown key {key!r}")

    return Scenario(
        name=prefix,
        net_kind=net_kind,
        net_params=net_params,
        window=window,
        rate_window=rate_window,
        lambda_grid=lambda_grid,
        wide_lambda_grid=wide,
        family_kind=family_kind,
        family_params=family_params,
        x_lo=x_lo,
        x_hi=x_hi,
        x_points=x_points,
        include_l_slopes=include_l_slopes,
        delta_count=delta_count,
        tolerances=tolerances,
        run_checks=run_checks,
        informational_checks=informational,
        check_params=check_params,
    )
