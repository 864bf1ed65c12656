"""edplab benchmark: one workload, measured in fresh processes.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {ascent,witness,pure-spec} \
        --seed N --seconds T --trace {0,1}

A pass runs the workload's fixed, seed-generated list of ``edplab``
commands in a new Python process (``child.py``), serially, each through
``edplab.cli.main(argv)``: a closed loop with one caller.  Every pass
pays the import and the first-touch allocations a user pays on every
``edplab`` command.  Passes repeat while another one still fits in
``--seconds`` (a run makes at least one, two when traced).
After each pass the parent checks every task's output, and compares the
bytes each task wrote with those of the first pass: the same seed must
give byte-identical files.

With ``--trace 0`` the last line of standard output reports, as medians
over the passes, ``wall_s`` (first CLI call to last return),
``setup_s`` (``import edplab`` plus building the task list) and
``peak_rss_mb`` (``ru_maxrss`` of the pass's process).  With
``--trace 1`` the passes alternate untraced and traced, and the last
line reports the per-layer table of ``tracer.py`` (medians over the
traced passes) plus ``trace_overhead_s``, the traced minus the untraced
median ``wall_s``.  Failed tasks (a raise, exit code 2, a failed output
check or bytes that differ between passes) are counted in ``failed``
out of ``attempted``.  The lines before the last give the same figures,
``failed_frac`` and the environment, for people.

Exit codes: 0 with a result; 1 when a pass could not run; 2 when the
checkout holds no ``src/edplab`` to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads
from child import THREAD_VARS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# A run must end within 180 s; passes get whatever is left of this.
DEADLINE_S = 170.0
# One BLAS thread for the benchmark's own processes (at most nproc): a
# second thread buys ~10% on the n=5 witness cell, but makes each pass
# depend on how much of the machine other tenants leave free.
BLAS_THREADS = "1"


class PassError(Exception):
    pass


@dataclass
class Pass:
    traced: bool
    setup_s: float
    wall_s: float
    peak_rss_mb: float
    failures: dict[str, str]  # task name -> why it failed
    digests: dict[str, str | None]  # task name -> sha256 of the bytes it wrote
    spec_bytes: int
    env: dict
    layers: dict[str, float] = field(default_factory=dict)


def run_pass(workload: str, seed: int, traced: bool, workdir: Path, env: dict, timeout: float) -> Pass:
    outdir = workdir / "out"
    outdir.mkdir()
    report = workdir / "report.json"
    log = workdir / "child.log"
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(seed), str(outdir),
           str(report), "1" if traced else "0"]
    try:
        with log.open("wb") as sink:
            proc = subprocess.run(cmd, stdout=sink, stderr=subprocess.STDOUT, env=env,
                                  cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassError(f"pass did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise PassError(f"pass exited with code {proc.returncode}:\n{tail}")
    doc = json.loads(report.read_text())

    failures: dict[str, str] = {}
    digests: dict[str, str | None] = {}
    spec_bytes = 0
    for task, result in zip(workloads.tasks(workload, seed, outdir), doc["tasks"], strict=True):
        path = outdir / task.output
        data = path.read_bytes() if path.is_file() else None
        digests[task.name] = hashlib.sha256(data).hexdigest() if data is not None else None
        if result["error"] is not None:
            why = result["error"]
        elif result["code"] == 2:
            why = "exit code 2"
        elif data is None:
            why = "wrote no output"
        else:
            why = workloads.check(task, data.decode())
        if why is not None:
            failures[task.name] = why
        if task.writes_spec and data is not None:
            spec_bytes += len(data)
    shutil.rmtree(outdir)

    result = Pass(traced, doc["setup_s"], doc["wall_s"], doc["peak_rss_mb"],
                  failures, digests, spec_bytes, doc["env"])
    if traced:
        result.layers = tracer.layer_metrics(doc["spans"])
        result.layers["serialize.spec_bytes"] = spec_bytes
    return result


def measure(workload: str, seed: int, seconds: int, trace: bool, workdir: Path) -> list[Pass]:
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    start = time.monotonic()
    durations: list[float] = []
    passes: list[Pass] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        began = time.monotonic()
        current = run_pass(workload, seed, traced, workdir, env, DEADLINE_S - (began - start))
        durations.append(time.monotonic() - began)
        for name, digest in current.digests.items():
            if passes and digest != passes[0].digests[name]:
                current.failures.setdefault(name, "output bytes differ from the first pass")
        passes.append(current)
        # stop unless another typical pass fits; a traced run needs one of each kind
        fits = time.monotonic() - start + statistics.median(durations) <= seconds
        if not fits and len(passes) >= (2 if trace else 1):
            return passes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not (ROOT / "src" / "edplab" / "__init__.py").is_file():
        print(f"error: no edplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        passes = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    e2e = {
        "wall_s": statistics.median(p.wall_s for p in untraced),
        "setup_s": statistics.median(p.setup_s for p in passes),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in untraced),
    }
    failures = [f"{name}: {why}" for p in passes for name, why in p.failures.items()]
    attempted = sum(len(p.digests) for p in passes)

    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes of {len(passes[0].digests)} tasks")
    print("env " + json.dumps(passes[0].env, sort_keys=True))
    for name, value in e2e.items():
        print(f"{name:<34} {value:.6g} {units[name]}")
    print("wall_s by pass: " + " ".join(f"{p.wall_s:.4f}{'t' if p.traced else ''}" for p in passes))
    print(f"{'failed_frac':<34} {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} tasks)")
    for failure in failures:
        print(f"failed: {failure}", file=sys.stderr)

    if args.trace:
        metrics = {}
        for name in (m["name"] for m in spec["per_layer"]):
            if name == "trace_overhead_s":
                value = statistics.median(p.wall_s for p in traced) - e2e["wall_s"]
            else:
                value = statistics.median(p.layers[name] for p in traced)
            metrics[name] = {"value": value, "unit": units[name]}
            print(f"{name:<34} {value:.6g} {units[name]}")
    else:
        metrics = {name: {"value": value, "unit": units[name]} for name, value in e2e.items()}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
