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
key it came from.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .measures import RegionSet
from .tilts import TiltFunction, q_bump_tilt

NET_KINDS = ("coin", "dem-zei", "iid-bernoulli")
FAMILY_KINDS = ("two-slope", "linear", "qn-plus-linear")

WINDOW_SAMPLES = 48  # geometric samples per tail window
DELTA_COUNT = 10  # the rate grid's ball radius is 2^-DELTA_COUNT
MAX_DELTA_COUNT = 1074  # 2^-1075 rounds to 0.0

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
            if not 0 < value < float("inf"):
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

    def all_checks(self) -> tuple[str, ...]:
        return tuple(self.run_checks) + tuple(
            c for c in self.informational_checks if c not in self.run_checks
        )


def parse_tilt_label(label: str) -> TiltFunction:
    parts = label.strip().split(":")
    kind = parts[0]
    try:
        if kind == "linear" and len(parts) == 2:
            return TiltFunction.linear(float(parts[1]))
        if kind == "two_slope" and len(parts) == 3:
            return TiltFunction.two_slope(float(parts[1]), float(parts[2]))
        if kind == "qn" and len(parts) == 2:
            return q_bump_tilt(int(parts[1]))
    except ValueError as exc:
        raise ScenarioError(f"bad tilt spec {label!r}: {exc}") from exc
    raise ScenarioError(f"bad tilt spec {label!r}")


def parse_region_spec(spec: str) -> tuple[RegionSet, str]:
    parts = spec.strip().split(":")
    if len(parts) != 3 or parts[0] not in ("open", "closed"):
        raise ScenarioError(f"bad region spec {spec!r} (want open:lo:hi)")
    lo, hi = float(parts[1]), float(parts[2])
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

    def number(self, key: str, default: float | None = None) -> float:
        raw = self.raw(key, default)
        try:
            value = float(raw)
        except (TypeError, ValueError) as exc:
            raise self.error(key, f"not a number: {raw!r}") from exc
        if not math.isfinite(value):
            raise self.error(key, f"not a finite number: {raw!r}")
        return value

    def entries(self, key: str, parse=str) -> tuple:
        """``parse`` of each entry of a comma-separated list; empty if absent."""
        toks = [tok.strip() for tok in self.text(key, "").split(",") if tok.strip()]
        try:
            return tuple(map(parse, toks))
        except ValueError as exc:
            raise self.error(key, str(exc)) from exc

    def positive_numbers(self, key: str, default: tuple[float, ...]) -> tuple[float, ...]:
        """A comma-separated list of finite numbers > 0."""
        values = self.entries(key, float) if self.has(key) else default
        if not all(0 < x < float("inf") for x in values):
            raise self.error(key, f"entries must be finite and > 0, got {list(values)}")
        return values

    def integer(self, key: str, default: int | None = None) -> int:
        raw = self.raw(key, default)
        try:
            return int(str(raw))
        except (TypeError, ValueError) as exc:
            raise self.error(key, f"not an integer: {raw!r}") from exc

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
    t_max, t_min = reader.number("t_max"), reader.number("t_min")
    samples = reader.integer("samples", WINDOW_SAMPLES)
    try:
        return WindowConfig(t_max, t_min, samples)
    except ScenarioError as exc:
        raise ScenarioError(f"{reader.path}: [{reader.section}] {exc}") from None


def _check_params(ch: _SectionReader, checks: tuple[str, ...]) -> CheckParams:
    """The ``[checks]`` parameters; ``checks`` are the requested check ids."""
    ctx = f"{ch.path}: [{ch.section}]"
    sub_G = None
    if "gartner-ellis-b-sub" in checks or ch.has("sub_lo") or ch.has("sub_hi"):
        sub_G = (ch.number("sub_lo"), ch.number("sub_hi"))
        if not sub_G[0] < sub_G[1]:
            raise ScenarioError(f"{ctx} needs sub_lo < sub_hi, got {sub_G}")
    lo_default, _, resolution_default = CheckParams.two_slope
    lo = ch.number("two_slope_lo", lo_default)
    two_slope = (
        lo,
        ch.number("two_slope_hi", -lo),
        ch.integer("two_slope_resolution", resolution_default),
    )
    if not two_slope[0] < two_slope[1]:
        raise ScenarioError(
            f"{ctx} needs two_slope_lo < two_slope_hi, got {two_slope[:2]}"
        )
    if two_slope[2] < 2:
        raise ch.error("two_slope_resolution", f"must be >= 2, got {two_slope[2]}")
    return CheckParams(
        sub_G=sub_G,
        eps_list=ch.positive_numbers("eps_list", CheckParams.eps_list),
        r_schedule=ch.positive_numbers("r_schedule", CheckParams.r_schedule),
        regions=ch.entries("regions", parse_region_spec),
        varadhan_tilts=ch.entries("varadhan_tilts", parse_tilt_label),
        two_slope=two_slope,
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
    net_kind = net.text("kind")
    if net_kind not in NET_KINDS:
        raise ScenarioError(f"{path}: [net] kind must be one of {NET_KINDS}")
    net_params: dict = {}
    if net_kind == "iid-bernoulli":
        net_params["max_n"] = net.integer("max_n", 8192)
        net_params["p"] = net.number("p", 0.5)
        if not (0 < net_params["p"] < 1):
            raise ScenarioError(f"{path}: [net] p must lie in (0, 1)")
    else:
        net_params["max_index"] = net.integer("max_index", 1_000_000)
    size = "max_n" if net_kind == "iid-bernoulli" else "max_index"  # the last index
    if net_params[size] < 2:
        raise net.error(size, f"must be >= 2, got {net_params[size]}")

    window = _window_from(section("window"))
    rate_window = _window_from(section("rate-window"), window)

    def grid_from(name: str) -> GridConfig:
        r = section(name)
        cfg = GridConfig(r.number("lo"), r.number("hi"), r.integer("resolution"))
        if not cfg.lo < cfg.hi:
            raise ScenarioError(f"{path}: [{name}] needs lo < hi")
        if cfg.resolution < 2:
            raise ScenarioError(f"{path}: [{name}] resolution must be >= 2")
        return cfg

    lambda_grid = grid_from("lambda-grid")
    wide = grid_from("wide-lambda-grid") if parser.has_section("wide-lambda-grid") else None

    fam = section("family")
    family_kind = fam.text("kind")
    if family_kind not in FAMILY_KINDS:
        raise ScenarioError(f"{path}: [family] kind must be one of {FAMILY_KINDS}")
    family_params: dict = {}
    if family_kind in ("two-slope", "linear"):
        family_params["lo"] = fam.number("lo")
        family_params["hi"] = fam.number("hi")
        family_params["resolution"] = fam.integer("resolution")
        if not family_params["lo"] < family_params["hi"]:
            raise ScenarioError(f"{path}: [family] needs lo < hi")
        if family_params["resolution"] < 2:
            raise fam.error("resolution", f"must be >= 2, got {family_params['resolution']}")
    else:  # qn-plus-linear: the linear part reuses the lambda grid
        family_params["n_max"] = fam.integer("n_max", 10)
        if family_params["n_max"] < 1:
            raise fam.error("n_max", f"must be >= 1, got {family_params['n_max']}")

    xg = section("x-grid")
    x_lo, x_hi = xg.number("lo"), xg.number("hi")
    if not x_lo < x_hi:
        raise ScenarioError(f"{path}: [x-grid] needs lo < hi")
    x_points = xg.integer("points")
    if x_points < 2:
        raise ScenarioError(f"{path}: [x-grid] points must be >= 2")
    include_l_slopes = xg.boolean("include_l_slopes", False)

    delta_count = section("deltas").integer("count", DELTA_COUNT)  # also without [deltas]
    if not 1 <= delta_count <= MAX_DELTA_COUNT:
        raise ScenarioError(
            f"{path}: [deltas] count must lie in 1..{MAX_DELTA_COUNT}, got {delta_count}"
        )
    # a radius that rounds away beside the grid leaves every ball empty
    x_max = max(abs(x_lo), abs(x_hi))
    if x_max + 2.0 ** -delta_count == x_max:
        raise ScenarioError(
            f"{path}: [deltas] count {delta_count} gives a ball radius 2^-{delta_count} "
            f"that vanishes beside the [x-grid] value {x_max} (x + r == x)"
        )

    tr = section("tolerances")
    tolerances = Tolerances(
        **{key: tr.number(key) for key in Tolerances.__dataclass_fields__ if tr.has(key)}
    )

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
