"""Tiny runs of every workload, so the benchmark cannot rot.

    python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_is_correct_and_reports_declared_metrics(workload, trace):
    out = run.bench(workload, seed=3, seconds=0.05, trace=trace, tiny=True)
    res = out["result"]
    assert res["correct"] and res["failed"] == 0, "\n".join(out["lines"])
    assert res["attempted"] >= run.MIN_VERDICTS
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())


def test_declared_workloads_are_the_runnable_ones():
    import workloads

    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)


def test_without_the_library_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "separation",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
