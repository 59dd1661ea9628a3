"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload separation --seed 1 --seconds 30 --trace 0

One caller, one process, one thread, in a closed loop: each verdict starts
when the previous one and its check have finished.  The process is fixed
before it measures: BLAS thread caps set to 1, string hashing and address
layout fixed (`reexec_fixed`), glibc's malloc thresholds pinned
(`pin_malloc`).  An untimed tiny-size warm-up batch comes first.  The run
then measures at least ``--seconds`` of verdict time and at least 100
verdicts, and stops at a batch boundary, so every run weighs the parts of a
batch the same.  Checks run outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each batch
twice, untraced and then rebuilt and traced with wrappers around every
layer, and prints the per-layer metrics, the tracing overhead and the
fixed-size probes; the spans go to ``.perfbench/trace-<workload>-<seed>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program under
test is imported from ``src/`` of the checkout this file sits in; without
it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("separation", "exact_law", "solvability")
# glibc's large-allocation thresholds, pinned at the top of their adaptive
# range (mallopt M_MMAP_THRESHOLD = -3, M_TRIM_THRESHOLD = -1)
MALLOC_PINS = ((-3, "mmap_threshold", 32 << 20), (-1, "trim_threshold", 64 << 20))
HASH_SEED = "0"
ADDR_NO_RANDOMIZE = 0x0040000  # personality flag: no address-space randomization
QUERY_PERSONA = 0xFFFFFFFF
FIXED_MARK = "PERFBENCH_FIXED_PROCESS"
SETUP_REPEATS = 5
MIN_VERDICTS = 100  # so verdict_p90_ms leaves at least 10 samples above it
WALL_CAP_S = 120.0  # no batch starts past this, so a run ends within 180 s

END_TO_END = (
    ("verdicts_per_s", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class PassResult:
    """Durations, batch ends, outcome digests and failing verdict ids of one pass.

    Digests are kept only when asked for, so a run's memory does not grow
    with its verdict count.
    """

    def __init__(self, keep_digests: bool = False):
        self.durations = array("d")
        self.batch_ends: list[int] = []
        self.keep_digests = keep_digests
        self.digests: list[object] = []
        self.failed: set[int] = set()
        self.first_error: str | None = None

    def fail(self, i: int, message: str) -> None:
        self.failed.add(i)
        if self.first_error is None:
            self.first_error = f"verdict {i}: {message}"


def run_verdicts(batch, res, tracer=None, expect=None) -> list:
    """Time each verdict of a batch, then check it outside the timed region.

    Returns the batch's outcome digests.  With a tracer the batch is a traced
    replay: the costly `deep` checks are skipped and each outcome must equal
    the untraced one in `expect`.
    """
    digests = []
    for k, v in enumerate(batch):
        i = len(res.durations)
        if tracer is not None:
            tracer.verdict = i
            tracer.active = True
        t0 = perf_counter()
        try:
            result = v.call() if tracer is None else tracer.span("bench.verdict", v.call)
            error = None
        except Exception:  # a verdict that raises is a failed verdict
            error = traceback.format_exc(limit=4)
        res.durations.append(perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        digest = None
        if error is not None:
            res.fail(i, error)
        else:
            try:
                digest = v.check(result)
                if tracer is None and v.deep is not None:
                    v.deep(result)
            except Exception:
                res.fail(i, traceback.format_exc(limit=4))
        digests.append(digest)
        if expect is not None and i not in res.failed and digest != expect[k]:
            res.fail(i, "traced replay gave a different outcome")
    if res.keep_digests:
        res.digests += digests
    return digests


def run_pass(spec, seed, seconds, tiny, tracer=None):
    """Run a warm-up batch, then batches in a closed loop until the length rule is met.

    The warm-up is a tiny-size batch from its own stream, checked but not
    timed: it pays the first-call costs of every code path (lazy imports,
    NumPy's first calls), so the first timed batch costs what later ones do.
    With a tracer, each timed batch is rebuilt and replayed traced right
    after its untraced run, so both see the machine in the same state.
    Returns the warm-up, untraced and traced results (the last None without
    a tracer).
    """
    from workloads import WARMUP_INDEX

    warm = PassResult()
    run_verdicts(_build(spec.batch, seed, WARMUP_INDEX, True), warm)
    plain = PassResult(keep_digests=spec.untimed_check is not None)
    traced = PassResult() if tracer is not None else None
    wall0 = perf_counter()
    index = 0
    while True:
        digests = run_verdicts(_build(spec.batch, seed, index, tiny), plain)
        plain.batch_ends.append(len(plain.durations))
        if tracer is not None:
            run_verdicts(_build(spec.batch, seed, index, tiny, tracer), traced,
                         tracer=tracer, expect=digests)
        index += 1
        if sum(plain.durations) >= seconds and len(plain.durations) >= MIN_VERDICTS:
            return warm, plain, traced
        if perf_counter() - wall0 > WALL_CAP_S:
            return warm, plain, traced


def _build(make_batch, seed, index, tiny, tracer=None):
    from workloads import batch_rng

    rng = batch_rng(seed, index)
    if tracer is None:
        return make_batch(rng, index, tiny)
    tracer.verdict = -1
    tracer.active = True
    try:
        return tracer.span("bench.setup", make_batch, (rng, index, tiny))
    finally:
        tracer.active = False


_SETUP = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import numpy, infodep, workloads
workloads.WORKLOADS[{workload!r}].batch(workloads.batch_rng({seed}, 0), 0, {tiny})
print(time.perf_counter() - t0)
"""


def _timed_setup(workload, seed, tiny) -> float:
    """Seconds a fresh interpreter takes to import and build the first batch."""
    code = _SETUP.format(src=str(SRC), here=str(HERE), workload=workload,
                         seed=seed, tiny=tiny)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


def pin_malloc() -> dict | None:
    """Fix glibc's mmap and trim thresholds; returns what was set, or None.

    glibc raises both thresholds as large blocks are freed, so whether a big
    NumPy temporary comes from retained heap or from fresh memory that
    page-faults on first touch depends on the allocation history: the same
    9-agent `precedes` call took 0.7 s in one run and 1.3 s (220k page
    faults) in another.  Pinned at the top of their adaptive range, every
    run sees the warm steady state of a long-running process.
    """
    if platform.libc_ver()[0] != "glibc":
        return None
    libc = ctypes.CDLL(ctypes.util.find_library("c"))
    if not all(libc.mallopt(param, value) for param, _, value in MALLOC_PINS):
        return None
    return {name: value for _, name, value in MALLOC_PINS}


def _personality(persona: int) -> int:
    """Linux personality(2): sets the persona, or with QUERY_PERSONA reads it.

    Returns -1 off Linux.
    """
    if not sys.platform.startswith("linux"):
        return -1
    return ctypes.CDLL(ctypes.util.find_library("c")).personality(persona)


def reexec_fixed(argv) -> None:
    """Replace this process by the same run with hashing and layout fixed.

    String hashing sets the iteration order of the library's sets and dicts;
    the address layout sets the order of identity-hashed objects and where
    arrays fall in the caches.  Drawn afresh per process, either gave runs
    of the same inputs their own speed: exact_law took 25% longer under one
    hash seed than under others, and solvability's median verdict took
    4.5 ms in some processes and 7 ms in others.  The new image gets
    PYTHONHASHSEED=0 and, where Linux allows it, no address randomization.
    exec starts no other process.
    """
    os.environ[FIXED_MARK] = "1"
    os.environ["PYTHONHASHSEED"] = HASH_SEED
    persona = _personality(QUERY_PERSONA)
    if persona != -1:
        _personality(persona | ADDR_NO_RANDOMIZE)
    sys.stdout.flush()
    os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv])


def batch_rates(res) -> list[float]:
    """Verdicts per second of verdict time, one value per batch."""
    starts = [0] + res.batch_ends[:-1]
    return [(end - start) / sum(res.durations[start:end])
            for start, end in zip(starts, res.batch_ends)]


def percentile_ms(durations, q):
    """Nearest-rank percentile in milliseconds."""
    ordered = sorted(durations)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1] * 1e3


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "infodep").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    import numpy
    from infodep import _kernels

    backend = _kernels.active_backend()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": backend,
        "kernel_backend_flag": None if backend == "numpy" else (
            "compiled kernels active: ROADMAP admits one only with a test pinning it"
            " to the NumPy kernel and a benchmark row showing it pays"),
        "thread_caps": {var: os.environ.get(var) for var in THREAD_CAPS},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "aslr": args.aslr,
        "malloc_pins": args.malloc_pins,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def bench(workload: str, seed: int, seconds: float, trace: bool,
          tiny: bool = False) -> dict:
    """Run one workload; returns the result object and the report lines."""
    import workloads

    spec = workloads.WORKLOADS[workload]
    setups = [_timed_setup(workload, seed, tiny) for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(setups)

    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        warm, plain, traced = run_pass(spec, seed, seconds, tiny, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    failed = set(plain.failed)
    errors = [plain.first_error] if plain.first_error else []
    if traced is not None:
        failed |= traced.failed
        if traced.first_error:
            errors.append("traced " + traced.first_error)
    attempted = len(warm.durations) + len(plain.durations)
    n_failed = len(warm.failed) + len(failed)
    if warm.first_error:
        errors.append("warm-up " + warm.first_error)
    if spec.untimed_check is not None:
        attempted += 1
        try:
            spec.untimed_check(plain.digests)
        except Exception:
            n_failed += 1
            errors.append(traceback.format_exc(limit=4))

    n = len(plain.durations)
    timed_s = sum(plain.durations)
    p90 = percentile_ms(plain.durations, 90)
    end_to_end = {
        "verdicts_per_s": statistics.median(batch_rates(plain)),
        "verdict_p50_ms": statistics.median(plain.durations) * 1e3,
        "verdict_p90_ms": p90,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "verdicts_per_s": f"median of {len(plain.batch_ends)} batch rates; "
                          f"{n} verdicts in {timed_s:.3f} s timed",
        "verdict_p50_ms": f"n={n}",
        "verdict_p90_ms": f"{sum(d * 1e3 > p90 for d in plain.durations)} samples above",
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters, "
                   f"{min(setups):.3f} to {max(setups):.3f} s",
    }
    lines = [f"workload {workload}  seed {seed}  trace {int(trace)}"]
    lines += [f"  {name:<16} {end_to_end[name]:>14.6g} {unit:<5} {notes.get(name, '')}"
              for name, unit in END_TO_END]
    lines.append(f"  {'failed_frac':<16} {n_failed / attempted:>14.6g} ratio "
                 f"{n_failed} of {attempted} attempted, {len(warm.durations)} in the warm-up")
    metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}

    if trace:
        metrics, trace_lines = _trace_report(workload, seed, tiny, tracer, plain, traced)
        lines += trace_lines

    for e in errors:
        lines.append("  first failure: " + e.strip().replace("\n", "\n    "))
    return {
        "lines": lines,
        "result": {"correct": not n_failed, "attempted": attempted,
                   "failed": n_failed, "metrics": metrics},
    }


def _trace_report(workload, seed, tiny, tracer, plain, traced):
    import probes

    values = tracer.metrics()
    values["trace.overhead_frac"] = sum(traced.durations) / sum(plain.durations) - 1
    values.update(probes.run_probes(tiny))
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{workload}-{seed}.npz"
    tracer.save(path)

    units = dict(per_layer_metrics())
    lines = ["  per-layer (traced replay of the same verdicts):"]
    lines += [f"    {name:<52} {values[name]:>14.6g} {units[name]}" for name in units]
    shares = ", ".join(f"{k} {v:.1%}" for k, v in tracer.layer_shares().items())
    lines.append(f"  self-time share by layer: {shares}")
    lines.append(f"  spans written to {path.relative_to(ROOT)} ({tracer.dropped} dropped)")
    return {name: {"value": values[name], "unit": units[name]} for name in units}, lines


def per_layer_metrics() -> list[tuple[str, str]]:
    import probes
    import tracer as tracing

    return (tracing.layer_metrics() + [("trace.overhead_frac", "ratio")]
            + [(name, "ms") for name in probes.PROBES])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "infodep" / "__init__.py").is_file():
        print(f"error: {SRC / 'infodep'} not found; run from a checkout of the"
              " repository", file=sys.stderr)
        return 2
    for var in THREAD_CAPS:
        os.environ[var] = "1"
    if os.environ.get(FIXED_MARK) != "1":
        reexec_fixed(sys.argv[1:] if argv is None else argv)
    args.aslr = "off" if _personality(QUERY_PERSONA) & ADDR_NO_RANDOMIZE else "on"
    args.malloc_pins = pin_malloc()
    sys.path.insert(0, str(SRC))
    import infodep
    if Path(infodep.__file__).resolve().parent != SRC / "infodep":
        print(f"error: imported infodep from {infodep.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    out = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(out["lines"]))
    print("provenance " + json.dumps(provenance(args)))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
