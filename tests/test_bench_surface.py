"""The library surface the benchmark in `perfbench/` reaches.

The benchmark's own tests (`python -m pytest perfbench`) are not part of the
main suite, so a library change that breaks the traced run would otherwise
pass here.  These tests read `perfbench/` as it is and change nothing in it.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


def test_every_traced_layer_resolves(perfbench):
    tracer = importlib.import_module("tracer")
    for prefix, module, attr, _ in tracer.LAYERS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), prefix


def test_tiny_probes_run(perfbench):
    probes = importlib.import_module("probes")
    out = probes.run_probes(tiny=True)
    assert list(out) == list(probes.PROBES)
    assert all(ms >= 0 for ms in out.values())


@pytest.mark.parametrize("name", ["separation", "exact_law", "solvability"])
def test_tiny_workload_batch_runs_and_checks(perfbench, name):
    # every library call a workload times, with its checks, as the run makes them
    workloads = importlib.import_module("workloads")
    spec = workloads.WORKLOADS[name]
    verdicts = spec.batch(workloads.batch_rng(0, 0), 0, True)
    assert verdicts
    digests = []
    for v in verdicts:
        result = v.call()
        digests.append(v.check(result))
        if v.deep is not None:
            v.deep(result)
    if spec.untimed_check is not None:
        spec.untimed_check(digests)
