"""Scenario files: flat sectioned key-value configs for the batch runner.

The grammar is INI-style (``configparser``): sections in brackets, one
``key = value`` per line, ``#``/``;`` comments.  No expression language.
See the README for the full key reference; unknown sections or keys are
rejected so typos fail loudly, and every parse error names the section and
key it came from.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

from .tilts import TiltFunction

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


_ALLOWED_KEYS = {
    "net": {"kind", "max_index", "max_n", "p"},
    "window": {"t_max", "t_min", "samples"},
    "rate-window": {"t_max", "t_min", "samples"},
    "lambda-grid": {"lo", "hi", "resolution"},
    "wide-lambda-grid": {"lo", "hi", "resolution"},
    "family": {"kind", "lo", "hi", "resolution", "n_max"},
    "x-grid": {"lo", "hi", "points", "include_l_slopes"},
    "deltas": {"count"},
    "tolerances": set(Tolerances.__dataclass_fields__),
    "checks": {
        "run",
        "informational",
        "sub_lo",
        "sub_hi",
        "eps_list",
        "r_schedule",
        "regions",
        "varadhan_tilts",
        "two_slope_lo",
        "two_slope_hi",
        "two_slope_resolution",
    },
    "output": {"prefix"},
}


@dataclass(frozen=True)
class Scenario:
    name: str
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
    check_params: dict
    output_prefix: str

    def all_checks(self) -> tuple[str, ...]:
        return tuple(self.run_checks) + tuple(
            c for c in self.informational_checks if c not in self.run_checks
        )


def _parse_tilt_label(label: str) -> TiltFunction:
    parts = label.strip().split(":")
    kind = parts[0]
    try:
        if kind == "linear" and len(parts) == 2:
            return TiltFunction.linear(float(parts[1]))
        if kind == "two_slope" and len(parts) == 3:
            return TiltFunction.two_slope(float(parts[1]), float(parts[2]))
        if kind == "qn" and len(parts) == 2:
            from .tilts import q_bump_tilt

            return q_bump_tilt(int(parts[1]))
    except ValueError as exc:
        raise ScenarioError(f"bad tilt spec {label!r}: {exc}") from exc
    raise ScenarioError(f"bad tilt spec {label!r}")


def parse_tilt_labels(labels: str) -> list[TiltFunction]:
    return [_parse_tilt_label(tok) for tok in labels.split(",") if tok.strip()]


def _parse_region_spec(spec: str):
    from .measures import RegionSet

    parts = spec.strip().split(":")
    if len(parts) != 3 or parts[0] not in ("open", "closed"):
        raise ScenarioError(f"bad region spec {spec!r} (want open:lo:hi)")
    lo, hi = float(parts[1]), float(parts[2])
    region = RegionSet.open(lo, hi) if parts[0] == "open" else RegionSet.closed(lo, hi)
    return region, parts[0]


def parse_region_specs(specs: str):
    return [_parse_region_spec(tok) for tok in specs.split(",") if tok.strip()]


class _SectionReader:
    def __init__(self, parser: configparser.ConfigParser, section: str, path: str):
        self.parser = parser
        self.section = section
        self.path = path

    def _ctx(self, key: str) -> str:
        return f"{self.path}: [{self.section}] {key}"

    def has(self, key: str) -> bool:
        return self.parser.has_option(self.section, key)

    def raw(self, key: str, default=None):
        if not self.has(key):
            if default is not None:
                return default
            raise ScenarioError(f"{self._ctx(key)}: missing required key")
        return self.parser.get(self.section, key)

    def text(self, key: str, default: str | None = None) -> str:
        return str(self.raw(key, default)).strip()

    def number(self, key: str, default: float | None = None) -> float:
        raw = self.raw(key, default)
        try:
            return float(raw)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{self._ctx(key)}: not a number: {raw!r}") from exc

    def positive_numbers(self, key: str) -> list[float]:
        """A comma-separated list of finite numbers > 0."""
        toks = [tok.strip() for tok in self.text(key).split(",") if tok.strip()]
        try:
            values = [float(tok) for tok in toks]
        except ValueError as exc:
            raise ScenarioError(f"{self._ctx(key)}: not a number: {exc}") from exc
        if not all(0 < x < float("inf") for x in values):
            raise ScenarioError(f"{self._ctx(key)}: entries must be finite and > 0, got {toks}")
        return values

    def integer(self, key: str, default: int | None = None) -> int:
        raw = self.raw(key, default)
        try:
            return int(str(raw))
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{self._ctx(key)}: not an integer: {raw!r}") from exc

    def boolean(self, key: str, default: bool) -> bool:
        if not self.has(key):
            return default
        raw = self.text(key).lower()
        if raw in ("true", "yes", "1"):
            return True
        if raw in ("false", "no", "0"):
            return False
        raise ScenarioError(f"{self._ctx(key)}: not a boolean: {raw!r}")


def _window_from(reader: _SectionReader, defaults: WindowConfig | None = None) -> WindowConfig:
    if defaults is not None and not reader.parser.has_section(reader.section):
        return defaults
    cfg = WindowConfig(
        t_max=reader.number("t_max"),
        t_min=reader.number("t_min"),
        samples=reader.integer("samples", WINDOW_SAMPLES),
    )
    if not (0 < cfg.t_min < cfg.t_max):
        raise ScenarioError(
            f"{reader.path}: [{reader.section}] needs 0 < t_min < t_max"
        )
    if cfg.samples < 2:
        raise ScenarioError(f"{reader.path}: [{reader.section}] samples must be >= 2")
    return cfg


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

    for section in parser.sections():
        if section not in _ALLOWED_KEYS:
            raise ScenarioError(f"{path}: unknown section [{section}]")
        for key in parser.options(section):
            if key not in _ALLOWED_KEYS[section]:
                raise ScenarioError(f"{path}: [{section}] unknown key {key!r}")

    net = _SectionReader(parser, "net", path)
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

    window = _window_from(_SectionReader(parser, "window", path))
    rate_window = _window_from(_SectionReader(parser, "rate-window", path), window)

    def grid_from(section: str) -> GridConfig:
        r = _SectionReader(parser, section, path)
        cfg = GridConfig(r.number("lo"), r.number("hi"), r.integer("resolution"))
        if not cfg.lo < cfg.hi:
            raise ScenarioError(f"{path}: [{section}] needs lo < hi")
        if cfg.resolution < 2:
            raise ScenarioError(f"{path}: [{section}] resolution must be >= 2")
        return cfg

    lambda_grid = grid_from("lambda-grid")
    wide = grid_from("wide-lambda-grid") if parser.has_section("wide-lambda-grid") else None

    fam = _SectionReader(parser, "family", path)
    family_kind = fam.text("kind")
    if family_kind not in FAMILY_KINDS:
        raise ScenarioError(f"{path}: [family] kind must be one of {FAMILY_KINDS}")
    family_params: dict = {}
    if family_kind in ("two-slope", "linear"):
        family_params["lo"] = fam.number("lo")
        family_params["hi"] = fam.number("hi")
        family_params["resolution"] = fam.integer("resolution")
    else:  # qn-plus-linear: the linear part reuses the lambda grid
        family_params["n_max"] = fam.integer("n_max", 10)

    xg = _SectionReader(parser, "x-grid", path)
    x_lo, x_hi = xg.number("lo"), xg.number("hi")
    if not x_lo < x_hi:
        raise ScenarioError(f"{path}: [x-grid] needs lo < hi")
    x_points = xg.integer("points")
    if x_points < 2:
        raise ScenarioError(f"{path}: [x-grid] points must be >= 2")
    include_l_slopes = xg.boolean("include_l_slopes", False)

    deltas = _SectionReader(parser, "deltas", path)
    delta_count = deltas.integer("count", DELTA_COUNT)  # also without a [deltas] section
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

    tol_kwargs = {}
    if parser.has_section("tolerances"):
        tr = _SectionReader(parser, "tolerances", path)
        for key in _ALLOWED_KEYS["tolerances"]:
            if tr.has(key):
                tol_kwargs[key] = tr.number(key)
    tolerances = Tolerances(**tol_kwargs)

    run_checks: tuple[str, ...] = ()
    informational: tuple[str, ...] = ()
    check_params: dict = {}
    if parser.has_section("checks"):
        ch = _SectionReader(parser, "checks", path)

        def check_list(key: str) -> tuple[str, ...]:
            if not ch.has(key):
                return ()
            names = tuple(
                tok.strip() for tok in ch.text(key).split(",") if tok.strip()
            )
            for name in names:
                if name not in KNOWN_CHECKS:
                    raise ScenarioError(
                        f"{path}: [checks] unknown check {name!r}; "
                        f"known: {', '.join(KNOWN_CHECKS)}"
                    )
            return names

        run_checks = check_list("run")
        informational = check_list("informational")
        if ch.has("sub_lo") or ch.has("sub_hi"):
            check_params["sub_G"] = (ch.number("sub_lo"), ch.number("sub_hi"))
        for key in ("eps_list", "r_schedule"):
            if ch.has(key):
                check_params[key] = ch.positive_numbers(key)
        if ch.has("regions"):
            check_params["regions"] = ch.text("regions")
        if ch.has("varadhan_tilts"):
            check_params["varadhan_tilts"] = ch.text("varadhan_tilts")
        if ch.has("two_slope_lo"):
            check_params["two_slope"] = (
                ch.number("two_slope_lo"),
                ch.number("two_slope_hi", -ch.number("two_slope_lo")),
                ch.integer("two_slope_resolution", 41),
            )

    out = _SectionReader(parser, "output", path)
    prefix = out.text("prefix")

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
        output_prefix=prefix,
    )
