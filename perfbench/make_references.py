"""Regenerate the seed-0 reference reports under ``perfbench/references/``.

    python3 perfbench/make_references.py

Covers the workloads whose report has no committed golden (``iid-run`` and
``coin-free-energy``).  The benchmark diffs seed-0 reports against these
files with ``ldpkit.pipeline.golden_diff`` (rtol 1e-7, atol 1e-9), so only
regenerate them for a change that is meant to alter a report, and say so.
"""

from __future__ import annotations

import gzip
import shutil
import sys

from run import GOLDENS, OUT, WORKLOADS, import_ldpkit, run_op, scenario_text


def main() -> int:
    ldpkit = import_ldpkit()
    for name, workload in WORKLOADS.items():
        if workload.reference.parent == GOLDENS:
            continue
        work = OUT / f"reference-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            cfg = work / f"{workload.scenario}.cfg"
            cfg.write_text(scenario_text(name, 0), encoding="utf-8")
            out_dir = work / "out"
            _, status = run_op(ldpkit.cli, workload.argv(cfg, out_dir))
            if status != 0:
                print(f"error: {name} exited with {status!r}", file=sys.stderr)
                return 1
            data = (out_dir / workload.report_name).read_bytes()
        finally:
            shutil.rmtree(work, ignore_errors=True)
        workload.reference.parent.mkdir(parents=True, exist_ok=True)
        with open(workload.reference, "wb") as raw:
            with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as fh:
                fh.write(data)
        print(f"wrote {workload.reference.relative_to(OUT.parent)} ({len(data)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
