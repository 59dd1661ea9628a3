"""Fixed-size probes: one kernel or relation call on fixed inputs.

The inputs do not depend on the run's seed, so the numbers can be compared
with the baseline rows and targets of ROADMAP.md.  The three kernel probes
reuse the inputs of ``benchmarks/bench_kernels.py``; the precedence probes
build one fixed 10-agent DAG model (4^10 configurations).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from infodep import _kernels, precedence
from infodep.fieldcore import ConfigSet

import workloads

PROBES = (
    "probe.group_constant_500k_ms",
    "probe.solve_counts_262k_ms",
    "probe.scan_profiles_4096_ms",
    "probe.precedes_n10_full_ms",
    "probe.precedes_n10_ctx_ms",
)


def _median_ms(fn, repeat: int) -> float:
    fn()  # first call pays one-off allocations
    times = []
    for _ in range(repeat):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def _once_ms(fn):
    t0 = perf_counter()
    out = fn()
    return (perf_counter() - t0) * 1e3, out


def _scan_inputs(n_agents: int, n_omega: int):
    """Nature-measurable fields: every profile solves, so the scan visits all."""
    n_configs = n_omega * 2 ** n_agents
    idx = np.arange(n_configs, dtype=np.int64)
    atoms = np.stack([(idx % n_omega) % 4 for _ in range(n_agents)])
    uvals = np.stack([(idx // n_omega >> a) & 1 for a in range(n_agents)])
    ks = np.arange(16, dtype=np.int64)[:, None]
    powers = 2 ** np.arange(4, dtype=np.int64)[None, :]
    per_agent = ((ks // powers) % 2).ravel()
    return (np.concatenate([per_agent] * n_agents),
            np.arange(n_agents, dtype=np.int64) * per_agent.size,
            np.full(n_agents, 16, dtype=np.int64), np.full(n_agents, 4, dtype=np.int64),
            atoms, uvals, n_omega, 16 ** n_agents)


def run_probes(tiny: bool = False) -> dict[str, float]:
    """Probe name -> milliseconds; `tiny` shrinks every input for tests."""
    rows, configs, scan_agents, prec_n, repeat = (
        (5_000, 4_096, 2, 5, 1) if tiny else (500_000, 262_144, 3, 10, 5))
    rng = np.random.default_rng(0)
    codes = rng.integers(0, 8192, rows)
    vals = codes % 17
    out = {"probe.group_constant_500k_ms": _median_ms(
        lambda: _kernels.group_constant(codes, vals, 8192), repeat)}

    rng = np.random.default_rng(1)
    atoms = rng.integers(0, 64, (6, configs))
    uvals = rng.integers(0, 2, (6, configs))
    tables = rng.integers(0, 2, 64 * 6)
    offsets = np.arange(6, dtype=np.int64) * 64
    out["probe.solve_counts_262k_ms"] = _median_ms(
        lambda: _kernels.solve_counts(tables, offsets, atoms, uvals, 4096), repeat)

    scan = _scan_inputs(scan_agents, 64)
    if _kernels.scan_profiles(*scan) != -1:
        raise workloads.CheckFailed("scan probe found an unsolvable profile")
    out["probe.scan_profiles_4096_ms"] = _median_ms(
        lambda: _kernels.scan_profiles(*scan), max(1, repeat // 2))

    rng = np.random.default_rng(10)
    m, seen = workloads.random_dag_model(rng, prec_n, 0.3)
    out["probe.precedes_n10_full_ms"], rel = _once_ms(lambda: precedence.precedes(m))
    if not np.array_equal(rel.matrix, workloads.adjacency(m.agents, seen)):
        raise workloads.CheckFailed("probe relation differs from the parent adjacency")
    ctx = ConfigSet(m.space, rng.random(m.space.n_configs) < 0.5)
    out["probe.precedes_n10_ctx_ms"], _ = _once_ms(lambda: precedence.precedes(m, (), ctx))
    return out
