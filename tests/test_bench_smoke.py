"""Smoke run of the benchmark harness against the library in src/.

bench/run.py calls the library's public functions; a signature change that
breaks it should fail here, not only in a full benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


@pytest.mark.parametrize("workload, trace", [("optimize", "0"), ("transforms", "0"),
                                             ("optimize", "1"), ("transforms", "1")])
def test_harness_runs_correctly(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    if trace == "0":
        assert all(result["metrics"][name]["value"] > 0 for name in END_TO_END)
    elif workload == "optimize":
        # the k x k core of every Stiefel transform is a traced span
        assert result["metrics"]["group.b_matrix.calls"]["value"] > 0
    else:
        # the lift works on native arrays but is still a traced span
        assert result["metrics"]["stiefel.complete_lift.self_s"]["value"] > 0
