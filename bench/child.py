"""One pass of one workload, in a fresh process.

Usage: python child.py WORKLOAD SEED WORKDIR REPORT TRACE

Imports edplab from the checkout's ``src``, builds the workload's task
list, then calls ``edplab.cli.main(argv)`` for each task in turn and
writes a JSON report to REPORT: set-up and wall times, peak RSS, each
task's exit code or exception, the environment and, when TRACE is 1,
the recorded spans.  Exits 2 when edplab cannot be imported from the
checkout.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def environment() -> dict[str, object]:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv: list[str]) -> int:
    workload, seed, workdir, report, trace = argv
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import edplab.cli
    except ImportError as exc:
        print(f"error: cannot import edplab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(edplab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: edplab imported from {edplab.__file__}, not the checkout", file=sys.stderr)
        return 2
    task_list = workloads.tasks(workload, int(seed), Path(workdir))
    setup_s = time.perf_counter() - start

    spans = None
    if trace == "1":
        spans = tracer.Tracer()
        tracer.install(spans)
    results = []
    begin = time.perf_counter()
    for task in task_list:
        try:
            results.append({"code": edplab.cli.main(list(task.argv)), "error": None})
        except (Exception, SystemExit) as exc:  # any raise is a failed task
            results.append({"code": None, "error": f"{type(exc).__name__}: {exc}"})
    wall_s = time.perf_counter() - begin
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    doc = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "tasks": results,
        "env": environment(),
        "spans": spans.dump() if spans is not None else None,
    }
    Path(report).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
