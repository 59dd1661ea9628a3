"""Span tracing of the library's layers from outside the library.

`Tracer.install` replaces each layer function at every ``infodep`` module
attribute bound to it (and methods on their classes), so calls the library
makes internally are caught too, and `Tracer.uninstall` puts the originals
back.  A span records name, start, end, parent span and verdict id; spans
stay in memory and `Tracer.save` writes them when the run ends.

Self time is a span's duration minus the time its child spans cover.  Calls
are single-threaded and children nest inside their parent, so the wrapper
subtracts each child's duration from its parent as it closes.  Counts the
library does not return are derived from the call's inputs and result.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_rows(stats, args, kwargs, result, self_s):
    stats["fieldcore.group_constant.rows"] += len(args[0])


def _count_configs(stats, args, kwargs, result, self_s):
    stats["fieldcore.solve_counts.configs"] += int(args[2].shape[1])


def _count_profiles(stats, args, kwargs, result, self_s):
    first_bad = int(result)
    stats["fieldcore.scan_profiles.profiles"] += (
        first_bad + 1 if first_bad >= 0 else int(args[7])
    )


def _count_precedes(stats, args, kwargs, result, self_s):
    m = args[0]
    ctx = _arg(args, kwargs, 2, "ctx")
    full = ctx is None or ctx.is_full
    size = m.space.n_configs if ctx is None else ctx.size
    stats["precedence.precedes.configs_examined"] += len(m.agents) * size
    stats["precedence.precedes.full.self_s" if full else
          "precedence.precedes.ctx.self_s"] += self_s


def _count_separated(stats, args, kwargs, result, self_s):
    m = args[0]
    w = frozenset(_arg(args, kwargs, 3, "w", ()))
    w_sorted = [a for a in m.agents if a in w]
    if result is None:
        tried = 1 << len(w_sorted)
    else:
        stats["precedence.topologically_separated.separated"] += 1
        w_y = result.splitting.w_y
        tried = 1 + sum(1 << k for k, a in enumerate(w_sorted) if a in w_y)
    stats["precedence.topologically_separated.splittings_tried"] += tried


def _count_solve(stats, args, kwargs, result, self_s):
    stats["solvability.solve.solvable"] += bool(result.solvable)


def _count_model_solvable(stats, args, kwargs, result, self_s):
    stats["solvability.is_model_solvable.profiles_checked"] += result.profiles_checked
    stats["solvability.is_model_solvable.proved"] += result.kind == "SOLVABLE_PROVED"


def _count_ordering(stats, args, kwargs, result, self_s):
    stats["solvability.find_causal_ordering.found"] += result is not None


def _count_support(stats, args, kwargs, result, self_s):
    stats["probability.pushforward.support_size"] += len(result.support)


def _count_docalculus(stats, args, kwargs, result, self_s):
    m = args[0]
    trials = _arg(args, kwargs, 5, "policy_trials", 50)
    stats["probability.verify_docalculus.checks"] += result.checks_run
    stats["probability.verify_docalculus.profiles"] += (
        trials + (m.canonical_profile is not None)
    )


def _count_dsep(stats, args, kwargs, result, self_s):
    stats["dsep.d_separated.separated"] += bool(result)


# (metric prefix, module, attribute path, counter)
LAYERS = (
    ("fieldcore.group_constant", "infodep._kernels", "group_constant", _count_rows),
    ("fieldcore.solve_counts", "infodep._kernels", "solve_counts", _count_configs),
    ("fieldcore.scan_profiles", "infodep._kernels", "scan_profiles", _count_profiles),
    ("fieldcore.mask_codes", "infodep.fieldcore", "ConfigSpace.mask_codes", None),
    ("precedence.precedes", "infodep.precedence", "precedes", _count_precedes),
    ("precedence.topologically_separated", "infodep.precedence",
     "topologically_separated", _count_separated),
    ("precedence.closure", "infodep.precedence", "closure", None),
    ("solvability.solve", "infodep.solvability", "solve", _count_solve),
    ("solvability.is_model_solvable", "infodep.solvability", "is_model_solvable",
     _count_model_solvable),
    ("solvability.find_causal_ordering", "infodep.solvability",
     "find_causal_ordering", _count_ordering),
    ("probability.pushforward", "infodep.probability", "pushforward", _count_support),
    ("probability.cond_independent", "infodep.probability", "cond_independent", None),
    ("probability.conditional", "infodep.probability", "conditional", None),
    ("probability.verify_docalculus", "infodep.probability", "verify_docalculus",
     _count_docalculus),
    ("dsep.d_separated", "infodep.dsep", "d_separated", _count_dsep),
    ("model.dag_to_idm", "infodep.model", "dag_to_idm", None),
    ("model.Prior.omega_mass", "infodep.model", "Prior.omega_mass", None),
)

# Extra per-layer metrics beyond each layer's calls and self_s: (suffix, unit).
_EXTRA = {
    "fieldcore.group_constant": (("rows", "count"),),
    "fieldcore.solve_counts": (("configs", "count"),),
    "fieldcore.scan_profiles": (("profiles", "count"),),
    "precedence.precedes": (("configs_examined", "count"), ("full.self_s", "s"),
                            ("ctx.self_s", "s")),
    "precedence.topologically_separated": (("splittings_tried", "count"),
                                           ("separated_frac", "ratio")),
    "solvability.solve": (("solvable_frac", "ratio"),),
    "solvability.is_model_solvable": (("profiles_checked", "count"),
                                      ("proved_frac", "ratio")),
    "solvability.find_causal_ordering": (("found_frac", "ratio"),),
    "probability.pushforward": (("support_size", "count"),),
    "probability.verify_docalculus": (("checks_per_profile", "ratio"),),
    "dsep.d_separated": (("separated_frac", "ratio"),),
}

# Ratio metrics: (metric, numerator counter, denominator counter).
_RATIOS = (
    ("precedence.topologically_separated.separated_frac",
     "precedence.topologically_separated.separated",
     "precedence.topologically_separated.calls"),
    ("solvability.solve.solvable_frac", "solvability.solve.solvable",
     "solvability.solve.calls"),
    ("solvability.is_model_solvable.proved_frac", "solvability.is_model_solvable.proved",
     "solvability.is_model_solvable.calls"),
    ("solvability.find_causal_ordering.found_frac",
     "solvability.find_causal_ordering.found", "solvability.find_causal_ordering.calls"),
    ("probability.verify_docalculus.checks_per_profile",
     "probability.verify_docalculus.checks", "probability.verify_docalculus.profiles"),
    ("dsep.d_separated.separated_frac", "dsep.d_separated.separated",
     "dsep.d_separated.calls"),
)


def layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every layer metric, in report order."""
    out = []
    for prefix, _, _, _ in LAYERS:
        out += [(f"{prefix}.calls", "count"), (f"{prefix}.self_s", "s")]
        out += [(f"{prefix}.{suffix}", unit) for suffix, unit in _EXTRA.get(prefix, ())]
    return out


ROOT_SPANS = ("bench.setup", "bench.verdict")
MAX_SPANS = 1_000_000  # spans kept for the trace file; later ones only count


class Tracer:
    """Records spans and per-layer self time while `active` is true."""

    def __init__(self):
        self.names = list(ROOT_SPANS) + [prefix for prefix, _, _, _ in LAYERS]
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.dropped = 0
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_verdict = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack: list[list] = []  # [span id, child seconds]
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.stats: defaultdict[str, float] = defaultdict(int)
        self.active = False
        self.verdict = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def span(self, name: str, fn, args=(), kwargs=None, counter=None):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        kwargs = kwargs or {}
        if not self.active:
            return fn(*args, **kwargs)
        sid = len(self._span_start) + self.dropped
        stored = sid < MAX_SPANS
        if stored:
            self._span_name.append(self._name_id[name])
            self._span_parent.append(self._stack[-1][0] if self._stack else -1)
            self._span_verdict.append(self.verdict)
            self._span_start.append(0.0)
            self._span_end.append(0.0)
        else:
            self.dropped += 1
        frame = [sid if stored else -1, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            duration = t1 - t0
            if self._stack:
                self._stack[-1][1] += duration
            self_s = duration - frame[1]
            self.self_s[name] += self_s
            if stored:
                self._span_start[sid] = t0
                self._span_end[sid] = t1
        if name not in ROOT_SPANS:
            self.stats[f"{name}.calls"] += 1
            if counter is not None:
                counter(self.stats, args, kwargs, result, self_s)
        return result

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function wherever an ``infodep`` module binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "infodep" or n.startswith("infodep."))]
        for prefix, module, attr, counter in LAYERS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(prefix, original, counter)
            if path:  # a method: one class attribute serves every caller
                self._patch(owner, leaf, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def _patch(self, owner, key, original, wrapper) -> None:
        self._patched.append((owner, key, original))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.span(name, fn, args, kwargs, counter)

        return traced

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every layer metric, zero where a layer was not called."""
        out = {}
        for name, _ in layer_metrics():
            layer = name.rsplit(".", 1)[0]
            if name.endswith(".self_s") and layer in self.self_s:
                out[name] = self.self_s[layer]
            else:
                out[name] = self.stats.get(name, 0)
        for metric, num, den in _RATIOS:
            out[metric] = self.stats[num] / self.stats[den] if self.stats[den] else 0.0
        return out

    def layer_shares(self) -> dict[str, float]:
        """Share of all traced self time per module (first name component)."""
        total = sum(self.self_s.values())
        shares: dict[str, float] = {}
        for name, s in self.self_s.items():
            layer = name.split(".", 1)[0]
            shares[layer] = shares.get(layer, 0.0) + (s / total if total else 0.0)
        return dict(sorted(shares.items(), key=lambda kv: -kv[1]))

    def save(self, path) -> None:
        """Write the recorded spans (times in seconds, parent -1 at a root)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self._span_name, dtype=np.int32),
            parent=np.array(self._span_parent, dtype=np.int32),
            verdict=np.array(self._span_verdict, dtype=np.int32),
            start=np.array(self._span_start, dtype=np.float64),
            end=np.array(self._span_end, dtype=np.float64),
            dropped=np.int64(self.dropped),
        )
