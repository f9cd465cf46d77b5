"""End-to-end and per-layer benchmark of the ldpkit command line.

Run from the repository root:

    python3 perfbench/run.py                        # every workload, one process each
    python3 perfbench/run.py --workload coin-run --seed 0 --seconds 20 --trace 0

A workload is one ldpkit subcommand on one packaged scenario.  Each run is a
single sequential closed loop: one client calls ``ldpkit.cli.main`` in
process at ``--threads 1``, waits for the verdict, checks the output and
starts the next operation.  The first operation warms the process and is not
timed.  Operations start until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics (``setup_s``, ``cmd_p50_s``,
``peak_rss_mb``).  ``--trace 1`` alternates untraced and traced operations
and reports the per-layer metrics from the spans of ``perfbench/tracer.py``
together with the tracing overhead.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Per-run records (provenance, every op time) and the spans of
the last traced operation are written under ``.perfbench_out/``.

Seed 0 runs the packaged scenario files verbatim and diffs the report
against the committed golden (``coin-run``, ``escaping-run``) or against the
reference under ``perfbench/references/`` (``iid-run``, ``coin-free-energy``).
Any other seed jitters grid endpoints and point counts by a few percent and
checks the exit status.  Every seed also checks the ``L`` table against the
net's closed-form free energy and requires every operation of a run to
write the same bytes.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import gzip
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import MEASURE_SPAN, Tracer, inclusive_time, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCENARIOS = SRC / "ldpkit" / "data" / "scenarios"
GOLDENS = SRC / "ldpkit" / "data" / "goldens"
REFERENCES = BENCH / "references"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
L_TOLERANCE = 1e-5  # |L - closed form|; the coin is off by t*log(2) ~ 7e-7 at t = 1e-6
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass(frozen=True)
class Workload:
    scenario: str  # packaged scenario name, also the output prefix
    command: str  # ldpkit subcommand
    reference: Path  # report that seed 0 must reproduce

    @property
    def report_name(self) -> str:
        suffix = "report" if self.command == "run" else "free_energy"
        return f"{self.scenario}_{suffix}.json"

    def argv(self, cfg: Path, out_dir: Path) -> list[str]:
        return [self.command, str(cfg), "--out-dir", str(out_dir), "--threads", "1"]


# Why each workload is here, and which layers it stresses, is in
# perfbench/README.md and BENCHMARK.json.
WORKLOADS = {
    "coin-run": Workload("ge-ex", "run", GOLDENS / "ge-ex.json"),
    "escaping-run": Workload("dem-zei", "run", GOLDENS / "dem-zei.json"),
    "iid-run": Workload("cramer", "run", REFERENCES / "iid-run.json.gz"),
    "coin-free-energy": Workload("ge-ex", "free-energy",
                                 REFERENCES / "coin-free-energy.json.gz"),
}

END_TO_END_UNITS = {"setup_s": "s", "cmd_p50_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; "computed" counts come from input sizes
PER_LAYER_UNITS = {
    "scenario.load_s": "s",
    "measures.build_s": "s",
    "measures.builds": "count",
    "measures.cache_hit_ratio": "ratio",
    "measures.atoms_max": "count",
    "measures.ball_mass_calls": "count",
    "measures.ball_mass_s": "s",
    "measures.exp_power_integral_calls": "count",
    "tilts.family_build_s": "s",
    "tilts.members": "count",
    "free_energy.family_table_s": "s",
    "free_energy.tilt_atom_evals": "count",
    "free_energy.estimate_limit_calls": "count",
    "free_energy.estimate_limit_s": "s",
    "free_energy.lambda_of_calls": "count",
    "conjugate.evaluate_family_calls": "count",
    "conjugate.evaluate_family_s": "s",
    "conjugate.abstract_lf_s": "s",
    "conjugate.stable_abstract_lf_s": "s",
    "convex.lf_transform_calls": "count",
    "convex.lf_transform_s": "s",
    "convex.derivative_range_s": "s",
    "verifier.rate_grid_s": "s",
    "verifier.ball_queries": "count",
    "verifier.exp_tight_s": "s",
    "verifier.ldp_bounds_s": "s",
    "verifier.varadhan_s": "s",
    "verifier.range_condition_s": "s",
    "verifier.derivative_bound_s": "s",
    "verifier.sandwich_s": "s",
    "verifier.rate_comparison_s": "s",
    "pipeline.self_s": "s",
    "pipeline.report_bytes": "bytes",
    "trace.cmd_p50_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead_s": "s",
}
COMPUTED = ("measures.atoms_max", "tilts.members", "free_energy.tilt_atom_evals",
            "verifier.ball_queries")

# (section, count key, endpoints excluded, direction) of the grids a non-zero
# seed resizes by whole steps: -1 trims, +1 extends.  Whole steps keep every
# point on the packaged lattice, which holds the atoms (0, +-1) where the rate
# functions are finite.  Lambda grids only shrink and the x grid only grows,
# so the x grid keeps covering the slopes of L and dem-zei's lambda grid
# stays inside [-1, 1], where its free energy is finite.
RESIZED_GRIDS = (
    ("lambda-grid", "resolution", True, -1),
    ("wide-lambda-grid", "resolution", True, -1),
    ("x-grid", "points", False, +1),
)
MAX_STEPS = 2  # grid steps added or removed at most at each end

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ldpkit
ldpkit.load_scenario(sys.argv[2])
print(time.perf_counter() - start)
"""


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def scenario_text(name: str, seed: int) -> str:
    """The scenario file the program receives for this workload and seed.

    Seed 0 is the packaged file verbatim.  Other seeds add or remove 0 to
    ``MAX_STEPS`` steps at each end of the lambda and x grids, which moves
    their endpoints and point counts by a few percent.  The tilt family
    stays as packaged, so the work per operation changes little.
    """
    text = (SCENARIOS / f"{WORKLOADS[name].scenario}.cfg").read_text(encoding="utf-8")
    if seed == 0:
        return text
    rng = random.Random(f"{name}:{seed}")
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cfg.read_string(text)
    for section, count_key, open_ends, direction in RESIZED_GRIDS:
        if not cfg.has_section(section):
            continue
        grid = cfg[section]
        lo, hi, count = float(grid["lo"]), float(grid["hi"]), int(grid[count_key])
        step = (hi - lo) / (count + 1 if open_ends else count - 1)
        below = direction * rng.randint(0, MAX_STEPS)
        above = direction * rng.randint(0, MAX_STEPS)
        grid["lo"] = repr(lo - below * step)
        grid["hi"] = repr(hi + above * step)
        grid[count_key] = str(count + below + above)
    buf = io.StringIO()
    cfg.write(buf)
    return buf.getvalue()


def closed_form_L(cfg_text: str, lams: list[float]) -> list[float]:
    """Free energy of the linear tilts on the scenario's net, in closed form."""
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cfg.read_string(cfg_text)
    kind = cfg["net"]["kind"]
    if kind == "coin":
        return [abs(lam) for lam in lams]
    if kind == "dem-zei":  # 0 on [-1, 1]; the lambda grid stays inside it
        return [0.0 for _ in lams]
    p = float(cfg["net"].get("p", "0.5"))
    return [math.log1p(-p + p * math.exp(lam)) for lam in lams]


def load_reference(path: Path):
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


class OutputCheck:
    """Decides whether one operation's output is correct."""

    def __init__(self, name: str, seed: int, cfg_text: str, golden_diff):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.cfg_text = cfg_text
        self.golden_diff = golden_diff
        self.first: dict[str, bytes] | None = None

    def problem(self, status, out_dir: Path) -> str | None:
        """None when the op is correct, else why it is not."""
        if status != 0:
            return f"exit status {status!r}"
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        if self.first is not None:
            return None if files == self.first else "output bytes differ from the first op"
        if self.workload.report_name not in files:
            return f"no {self.workload.report_name} written"
        report = json.loads(files[self.workload.report_name])
        L = report["tables"]["L"]
        if not all(L["converged"]):
            return "L table has non-converged entries"
        want = closed_form_L(self.cfg_text, L["xs"])
        gap = max(abs(float(v) - w) for v, w in zip(L["values"], want))
        if not gap <= L_TOLERANCE:
            return f"L table is {gap:.3g} from the closed form"
        if self.seed == 0:
            diffs = self.golden_diff(report, load_reference(self.workload.reference))
            if diffs:
                return f"{len(diffs)} differences from the reference, first {diffs[0]}"
        self.first = files
        return None


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def import_ldpkit():
    """Import ldpkit from this checkout's ``src``; exits with status 1 if absent."""
    if not (SRC / "ldpkit" / "__init__.py").is_file():
        sys.exit(f"error: no ldpkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ldpkit
    import ldpkit.cli
    import ldpkit.pipeline

    if Path(ldpkit.__file__).resolve().parent != SRC / "ldpkit":
        sys.exit(f"error: imported ldpkit from {ldpkit.__file__}, not {SRC}")
    return ldpkit


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "threads": 1,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def measure_setup(cfg_path: Path) -> list[float]:
    """Seconds to ``import ldpkit`` and load the scenario in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(cfg_path)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_op(cli, argv: list[str]):
    """(seconds, exit status or exception text) of one in-process command."""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
    except Exception as exc:  # the op fails; the loop goes on and counts it
        status = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, status


def layer_metrics(spans, calls, report_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced operation."""
    own = self_times(spans)
    names = [span[0] for span in spans]

    def count(name):
        return names.count(name)

    def total(*wanted):
        return inclusive_time(spans, wanted)

    def self_of(prefix):
        return sum(t for n, t in zip(names, own) if n.startswith(prefix))

    hits, misses = count(MEASURE_SPAN + ":hit"), count(MEASURE_SPAN + ":miss")
    ball = "measures.FiniteSupportMeasure.log_mass_in_open_interval"
    m = {
        "scenario.load_s": total("scenario.load_scenario"),
        "measures.build_s": total(MEASURE_SPAN + ":miss"),
        "measures.builds": misses,
        "measures.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "measures.ball_mass_calls": count(ball),
        "measures.ball_mass_s": total(ball),
        "measures.exp_power_integral_calls": count("measures.exp_power_integral"),
        "tilts.family_build_s": self_of("tilts."),
        "free_energy.family_table_s": self_of("free_energy.lambda_family_table"),
        "free_energy.estimate_limit_calls": count("free_energy.estimate_limit"),
        "free_energy.estimate_limit_s": total("free_energy.estimate_limit"),
        "free_energy.lambda_of_calls": count("free_energy.lambda_of"),
        "conjugate.evaluate_family_calls": count("conjugate.evaluate_family"),
        "conjugate.evaluate_family_s": total("conjugate.evaluate_family"),
        "conjugate.abstract_lf_s": total("conjugate.abstract_lf"),
        "conjugate.stable_abstract_lf_s": self_of("conjugate.stable_abstract_lf"),
        "convex.lf_transform_calls": count("convex.lf_transform"),
        "convex.lf_transform_s": total("convex.lf_transform"),
        "convex.derivative_range_s": total("convex.derivative_range"),
        "verifier.rate_grid_s": total("verifier.rate_grid"),
        "verifier.exp_tight_s": total("verifier.exponential_tightness_check"),
        "verifier.ldp_bounds_s": total("verifier.ldp_bounds_check"),
        "verifier.varadhan_s": total("verifier.varadhan_identity_check"),
        "verifier.range_condition_s": total("verifier.range_condition_check"),
        "verifier.derivative_bound_s": total("verifier.derivative_bound_scan",
                                             "verifier.derivative_bound_check"),
        "verifier.sandwich_s": total("verifier.sandwich_check"),
        "verifier.rate_comparison_s": total("verifier.rate_comparison"),
        "pipeline.self_s": self_of("pipeline."),
        "pipeline.report_bytes": report_bytes,
        "trace.self_sum_s": sum(own),
    }
    m.update(computed_counts(calls))
    return m


def computed_counts(calls) -> dict[str, int]:
    """Work counts from the sizes of the recorded family-table and rate-grid calls.

    The same inputs give the same counts on every run, so a later change can
    cite them as counts.  A call whose arguments no longer carry the expected
    names is skipped, which shows as a lower count.
    """
    members = tilt_atom_evals = ball_queries = atoms_max = 0
    for name, bound in calls:
        args = bound.arguments
        net, window = args.get("net"), args.get("window")
        if net is None or window is None:
            continue
        atoms = [net.measure(int(k)).locations.size for k in window.indices(net)]
        atoms_max = max([atoms_max, *atoms])
        if name == "free_energy.lambda_family_table" and "family" in args:
            size = len(args["family"].members)
            members += size
            tilt_atom_evals += size * sum(atoms)
        elif name == "verifier.rate_grid" and "grid" in args and "deltas" in args:
            ball_queries += len(args["grid"]) * len(args["deltas"]) * len(atoms)
    return {
        "tilts.members": members,
        "measures.atoms_max": atoms_max,
        "free_energy.tilt_atom_evals": tilt_atom_evals,
        "verifier.ball_queries": ball_queries,
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    ldpkit = import_ldpkit()
    workload = WORKLOADS[name]
    work = OUT / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cfg_text = scenario_text(name, seed)
        cfg_path = work / f"{workload.scenario}.cfg"
        cfg_path.write_text(cfg_text, encoding="utf-8")
        checker = OutputCheck(name, seed, cfg_text, ldpkit.pipeline.golden_diff)
        tracer = Tracer()
        setup = [] if trace else measure_setup(cfg_path)
        ops = []  # one dict per operation

        def op(traced: bool, timed: bool) -> None:
            out_dir = work / f"op{len(ops)}"
            argv = workload.argv(cfg_path, out_dir)
            if traced:
                tracer.reset()
                with tracer.installed():
                    seconds_, status = run_op(ldpkit.cli, argv)
            else:
                seconds_, status = run_op(ldpkit.cli, argv)
            problem = checker.problem(status, out_dir)
            record = {"seconds": seconds_, "traced": traced, "timed": timed,
                      "problem": problem}
            if traced:
                report = out_dir / workload.report_name
                size = report.stat().st_size if report.is_file() else 0
                record["layers"] = layer_metrics(tracer.spans, tracer.calls, size)
            ops.append(record)
            shutil.rmtree(out_dir, ignore_errors=True)
            if problem:
                print(f"op {len(ops) - 1} failed: {problem}", file=sys.stderr)

        op(traced=False, timed=False)  # warm-up
        start = time.perf_counter()
        while True:
            timed = [o for o in ops if o["timed"]]
            have_both = not trace or {o["traced"] for o in timed} == {False, True}
            if time.perf_counter() - start >= seconds and timed and have_both:
                break
            op(traced=trace and len(timed) % 2 == 0, timed=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [o["seconds"] for o in ops if o["timed"] and not o["traced"]]
    failed = sum(1 for o in ops if o["problem"])
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "provenance": provenance(), "setup_runs_s": setup, "ops": ops,
        "attempted": len(ops), "failed": failed,
        "cmd_p50_s": statistics.median(untraced),
    }
    if trace:
        traced = [o for o in ops if o["traced"]]
        metrics = {}
        for key, unit in PER_LAYER_UNITS.items():
            if not key.startswith("trace."):  # counts stay whole numbers
                pick = statistics.median_low if unit in ("count", "bytes") else statistics.median
                metrics[key] = pick(o["layers"][key] for o in traced)
        traced_p50 = statistics.median(o["seconds"] for o in traced)
        metrics["trace.cmd_p50_s"] = traced_p50
        metrics["trace.self_sum_s"] = statistics.median(
            o["layers"]["trace.self_sum_s"] for o in traced)
        metrics["trace.overhead_s"] = traced_p50 - result["cmd_p50_s"]
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        write_json(OUT / "traces" / f"{name}-seed{seed}.json", {
            "workload": name, "seed": seed,
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "spans": [[n, a - origin, b - origin, p] for n, a, b, p in tracer.spans],
        })
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "cmd_p50_s": result["cmd_p50_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    result["metrics"] = metrics
    write_json(OUT / "results" / f"{name}-seed{seed}-trace{int(trace)}.json", result)
    return result


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def report(result: dict) -> None:
    """Print every metric by name and unit, then the one-line JSON result."""
    name, trace = result["workload"], result["trace"]
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    timed = [o for o in result["ops"] if o["timed"]]
    print(f"# {name} seed={result['seed']} trace={trace} "
          f"provenance={json.dumps(result['provenance'], sort_keys=True)}")
    for key, value in result["metrics"].items():
        note = " (computed)" if key in COMPUTED else ""
        print(f"{name} {key} = {value:.6g} {units[key]}{note}")
    if trace:
        m = result["metrics"]
        print(f"{name} untraced cmd_p50_s = {result['cmd_p50_s']:.6g} s; "
              f"traced minus span self-time sum = "
              f"{m['trace.cmd_p50_s'] - m['trace.self_sum_s']:.3g} s")
    else:
        print(f"{name} cmd_p50_s is the median of {len(timed)} timed ops "
              f"after one warm-up op")
    print(f"{name} error_rate = {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} failed / {result['attempted']} attempted)")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload != "all":
        report(measure(args.workload, args.seed, args.seconds, bool(args.trace)))
        return 0
    status = 0
    for name in WORKLOADS:  # each workload in its own fresh interpreter
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], check=False)
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
