"""Smoke test of the benchmark itself, outside the tier-1 suite.

Runs every workload once untraced and once traced with a one-second
budget (one pass, or one of each kind when traced) and checks the result
line: every end-to-end and per-layer metric named in BENCHMARK.json is
there with its unit, and every task passed its checks.  About a minute
and a half on a 2-CPU machine:

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_run_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if trace and workload != "ascent":
        assert all(
            result["metrics"][m["name"]]["value"] == 0
            for m in SPEC["per_layer"] if m["name"].startswith("optimize.")
        )
    if trace and workload != "pure-spec":
        assert result["metrics"]["serialize.spec_bytes"]["value"] == 0

