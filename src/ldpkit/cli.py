"""Command-line front end.

Subcommands:

* ``run <scenario>``         -- full pipeline; exit 0 iff every check listed
  under ``run =`` holds (``informational =`` checks never affect the exit
  status).
* ``free-energy <scenario>`` -- free-energy tables only.
* ``conjugate <in> <out> --dual-grid lo:hi:n`` -- file-level Legendre-Fenchel
  transform of a ``x,value`` CSV.
* ``reproduce <name>``       -- run a packaged scenario (``ge-ex``,
  ``dem-zei`` or ``cramer``) and diff the report against the committed
  golden (``cramer`` has none, so it only runs); output files are written
  only with ``--out-dir``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace
from importlib import resources

import numpy as np

from .convex import GridFormatError, lf_transform, load_grid_csv, save_grid_csv
from .pipeline import _ArrayText, _json_pieces, free_energy_report, golden_diff, scenario_report
from .scenario import Scenario, ScenarioError, WindowConfig, _integer, _number, load_scenario

REPRODUCE_NAMES = ("ge-ex", "dem-zei", "cramer")
GOLDEN_NAMES = ("ge-ex", "dem-zei")


def _packaged_path(kind: str, name: str):
    return resources.files("ldpkit").joinpath(f"data/{kind}/{name}")


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    if getattr(args, "tol", None) is not None:
        try:
            tol = _number(args.tol, above=0)
        except ValueError as exc:
            raise ScenarioError(f"--tol {args.tol}: {exc}") from None
        scenario = replace(
            scenario,
            tolerances=replace(scenario.tolerances, convergence=tol),
            flags={**scenario.flags, "[tolerances] convergence": f"--tol {args.tol}"},
        )
    if getattr(args, "window", None) is not None:
        parts = args.window.split(":")
        try:
            if len(parts) != 3:
                raise ValueError("expects t_max:t_min:samples")
            new_window = WindowConfig(_number(parts[0]), _number(parts[1]), _integer(parts[2]))
        except ValueError as exc:  # a part that is not a number, or a bad window
            raise ScenarioError(f"--window {args.window}: {exc}") from None
        # a rate-window that was defaulted from [window] follows the override
        flags = {**scenario.flags, "[window]": f"--window {args.window}"}
        rate = scenario.rate_window
        if rate == scenario.window:
            rate, flags["[rate-window]"] = new_window, flags["[window]"]
        scenario = replace(scenario, window=new_window, rate_window=rate, flags=flags)
    return scenario


def _cmd_run(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    report, ok = scenario_report(scenario, out_dir=args.out_dir)
    for entry in report["checks"]:
        flag = "PASS" if entry["holds"] else "FAIL"
        note = " (informational)" if entry.get("informational") else ""
        print(f"[{flag}] {entry['condition_id']}{note}")
    for line in report["verdict"]["summary"]:
        print(f"verdict: {line}")
    return 0 if ok else 1


def _cmd_free_energy(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    L = free_energy_report(scenario, out_dir=args.out_dir)["tables"]["L"]
    print(f"L table with {len(L['xs'])} grid points written for scenario {scenario.name!r}")
    return 0


def _parse_dual_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    try:
        if len(parts) != 3:
            raise ValueError("expects lo:hi:n")
        lo = _number(parts[0])
        hi, n = _number(parts[1], above=lo), _integer(parts[2], least=2)
        if not math.isfinite(hi - lo):
            raise ValueError(f"span hi - lo = {hi - lo} is not finite")
    except ValueError as exc:  # a part that is not a number, or a bad grid
        raise GridFormatError(f"--dual-grid {spec}: {exc}") from None
    return np.linspace(lo, hi, n)


def _cmd_conjugate(args) -> int:
    f = load_grid_csv(args.input)
    if not f.is_proper:
        raise GridFormatError(f"{args.input}: needs a finite value and no -inf value")
    dual = _parse_dual_grid(args.dual_grid)
    # each difference and product of the hull and the transform, (v2 - v1) *
    # (x - x1) and dual * x - v, is at most this bound; rounding is monotone,
    # so a finite bound keeps each of them finite
    x_max, d_max = np.max(np.abs(f.xs)).item(), max(-dual[0], dual[-1]).item()
    v_max = np.max(np.abs(f.values[f.finite_mask]), initial=0.0).item()
    if not math.isfinite(4 * x_max * max(v_max, d_max) + 2 * (x_max + v_max)):
        raise GridFormatError(
            f"--dual-grid {args.dual_grid}: with the grid of {args.input} (max |x| = {x_max}, "
            f"max |value| = {v_max}) the conjugate's products overflow"
        )
    out = lf_transform(f, dual)
    save_grid_csv(out, args.output)
    flagged = sum(out.meta.get("off_slope_range", []))
    print(f"wrote {args.output} ({out.xs.size} points, {flagged} beyond slope range)")
    return 0


def _cmd_reproduce(args) -> int:
    name = args.name
    scenario_path = _packaged_path("scenarios", f"{name}.cfg")
    with resources.as_file(scenario_path) as p:
        scenario = load_scenario(p)
    report, _ = scenario_report(scenario, out_dir=args.out_dir)

    if name not in GOLDEN_NAMES:
        print(f"scenario {name!r} has no committed golden")
        return 0
    golden_path = _packaged_path("goldens", f"{name}.json")
    with resources.as_file(golden_path) as p:
        with open(p, "r", encoding="utf-8") as fh:
            golden = json.load(fh)
    # the report's JSON text, as --out-dir writes it, parsed
    diffs = golden_diff(json.loads("".join(_json_pieces(report, text=_ArrayText()))), golden)
    if diffs:
        print(f"golden mismatch for {name} ({len(diffs)} differences):")
        for line in diffs[:40]:
            print(f"  {line}")
        return 1
    print(f"{name}: report matches the committed golden")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldpkit",
        description=(
            "Free-energy estimation, Legendre-Fenchel conjugation, and "
            "large-deviation rate-function checks for scaled measure nets."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out-dir", default=None, help="directory for CSV/JSON output")
        p.add_argument("--threads", type=int, choices=(1,), default=1,
                       help="accepted only as 1: ldpkit runs serially")
        p.add_argument("--tol", default=None,
                       help="override the convergence tolerance")
        p.add_argument("--window", default=None,
                       help="override the main window as t_max:t_min:samples")

    p_run = sub.add_parser("run", help="run a scenario end to end")
    p_run.add_argument("scenario", help="path to a scenario .cfg file")
    common(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_fe = sub.add_parser("free-energy", help="free-energy tables only")
    p_fe.add_argument("scenario", help="path to a scenario .cfg file")
    common(p_fe)
    p_fe.set_defaults(fn=_cmd_free_energy)

    p_conj = sub.add_parser("conjugate", help="conjugate a grid-function CSV")
    p_conj.add_argument("input", help="input x,value CSV")
    p_conj.add_argument("output", help="output x,value CSV")
    p_conj.add_argument("--dual-grid", required=True, help="lo:hi:n")
    p_conj.set_defaults(fn=_cmd_conjugate)

    p_rep = sub.add_parser("reproduce", help="run a packaged scenario vs its golden")
    p_rep.add_argument("name", choices=REPRODUCE_NAMES,
                       help="one of: " + ", ".join(REPRODUCE_NAMES))
    p_rep.add_argument("--out-dir", default=None)
    p_rep.set_defaults(fn=_cmd_reproduce)
    return parser


_main_parser = functools.cache(build_parser)  # main parses with one parser: a build is ~0.5 ms


def main(argv=None) -> int:
    args = _main_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # ScenarioError, GridFormatError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
