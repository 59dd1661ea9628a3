"""Seeded inputs, verdicts and checks of the four benchmark workloads.

A workload is a stream of batches.  Batch k is drawn from
``np.random.default_rng([seed, k])``, so a run and its traced replay see the
same inputs; the library only receives what these generators build.  A
verdict is one call into the library (`Verdict.call`).  Its `check` runs
outside the timed region: it raises `CheckFailed` when the outcome is wrong
and returns a digest of the outcome, which the traced replay must
reproduce.  `deep`, when set, is a costlier check (an oracle) that only the
untraced pass runs.

Library functions are reached through their modules at call time
(``precedence.precedes``), so the tracer's wrappers see them.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

import numpy as np

from infodep import dsep, model, precedence, probability, solvability
from infodep.fieldcore import ConfigSpace, CoordinateMask, FiniteSpace


class CheckFailed(AssertionError):
    pass


class Verdict(NamedTuple):
    call: Callable[[], Any]
    check: Callable[[Any], object]
    deep: Callable[[Any], None] | None = None


class Workload(NamedTuple):
    batch: Callable[[np.random.Generator, int, bool], list[Verdict]]
    untimed_check: Callable[[list], None] | None = None  # gets the run's digests


# Index of the untimed warm-up batch: its own stream, never a timed batch's.
WARMUP_INDEX = 2 ** 31 - 1


def batch_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# input generators
# ---------------------------------------------------------------------------

def binary_space(agents: tuple[str, ...]) -> ConfigSpace:
    return ConfigSpace(
        agents,
        {a: FiniteSpace.binary(f"omega[{a}]") for a in agents},
        {a: FiniteSpace.binary(f"u[{a}]") for a in agents},
    )


def random_dag(rng, n: int, edge_prob: float) -> model.Dag:
    """Edges only from lower to higher index, each drawn independently."""
    nodes = tuple(f"V{i}" for i in range(n))
    edges = {(nodes[i], nodes[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < edge_prob}
    return model.Dag(nodes, edges)


def random_mask_model(rng, n: int, edge_prob: float):
    """Binary model whose fields see own noise and random decisions (cycles allowed).

    Returns the model and, per agent, the set of decisions its field sees.
    """
    agents = tuple(f"A{i}" for i in range(n))
    space = binary_space(agents)
    info, seen = {}, {}
    for a in agents:
        seen[a] = frozenset(b for b in agents if b != a and rng.random() < edge_prob)
        info[a] = model.InformationField.from_mask(
            space, a, CoordinateMask(frozenset({a}), seen[a]))
    return model.WModel(space, info, meta=model.ModelMeta(name="random-mask")), seen


def random_dag_model(rng, n: int, edge_prob: float):
    """A DAG model and, per node, its parents."""
    g = random_dag(rng, n, edge_prob)
    return model.dag_to_idm(g), {v: frozenset(g.parents(v)) for v in g.nodes}


def random_disjoint_sets(rng, agents):
    """Disjoint (Y, Z, W): Y of one or two agents, Z of one, W a random rest."""
    agents = list(agents)
    rng.shuffle(agents)
    ny = 1 + int(rng.integers(0, 2))
    y, z, rest = frozenset(agents[:ny]), frozenset(agents[ny:ny + 1]), agents[ny + 1:]
    return y, z, frozenset(rest[:int(rng.integers(0, len(rest) + 1))])


def adjacency(agents, seen) -> np.ndarray:
    """Entry (b, a) set when a's field sees b's decision."""
    return np.array([[b in seen[a] for a in agents] for b in agents], dtype=bool)


# ---------------------------------------------------------------------------
# separation: d-separation against topological separation on 6-node DAGs
# ---------------------------------------------------------------------------

def _separation_queries(g: model.Dag, m) -> list[Verdict]:
    cache = {}

    def relation(w):
        # computed by the graph's first query, as a user of one model would
        if "base" not in cache:
            cache["base"] = precedence.precedes(m)
        return cache["base"].diagonal_restrict(set(g.nodes) - w)

    def check(res):
        cert, d_sep = res
        _require((cert is not None) == d_sep, "d-separation and t-separation disagree")
        return d_sep, cert.splitting.w_y if cert is not None else None

    out = []
    nodes = g.nodes
    for yi, y in enumerate(nodes):
        for z in nodes[yi + 1:]:
            rest = [v for v in nodes if v not in (y, z)]
            for bits in range(1 << len(rest)):
                w = frozenset(v for k, v in enumerate(rest) if bits >> k & 1)
                if len(w) > 4:
                    continue

                def call(y=y, z=z, w=w):
                    cert = precedence.topologically_separated(
                        m, {y}, {z}, w, relation=relation(w))
                    return cert, dsep.d_separated(g, dsep.DsepQuery({y}, {z}, w))

                out.append(Verdict(call, check))
    return out


def separation_batch(rng, index: int, tiny: bool) -> list[Verdict]:
    n, graphs = (4, 2) if tiny else (6, 16)
    out = []
    for gi in range(graphs):
        g = random_dag(rng, n, 0.2 if gi % 2 == 0 else 0.4)
        out += _separation_queries(g, model.dag_to_idm(g))
    return out


# ---------------------------------------------------------------------------
# exact_law: exact do-calculus checks, Fraction arithmetic end to end
# ---------------------------------------------------------------------------

def _docalculus_verdict(m, y, z, w, policy_trials, prior_trials, seed,
                        must_separate=False) -> Verdict:
    def call():
        return probability.verify_docalculus(
            m, y, z, w, None, policy_trials=policy_trials,
            prior_trials=prior_trials, seed=seed)

    def check(rep):
        _require(rep.separated or not must_separate, "flagship query not separated")
        _require(not (rep.separated and rep.failures),
                 f"separated query violated: {rep.failures[:1]}")
        return rep.separated, rep.checks_run, rep.skipped_unsolvable, \
            rep.ci_violations_observed

    return Verdict(call, check)


def exact_law_batch(rng, index: int, tiny: bool) -> list[Verdict]:
    flagship_trials, n_models = ((2, 2), 6) if tiny else ((10, 40), 40)
    xor = model.builtin("witsenhausen-xor")
    out = [_docalculus_verdict(
        xor, {"X3"}, {"X4"}, {"X0", "X1", "X2"}, *flagship_trials,
        seed=int(rng.integers(2 ** 32)), must_separate=True)]
    for t in range(n_models):
        # kind and size cycle with period 6, so every batch has the same mix
        n = 4 + t % 2
        if t % 3 == 0:
            m, _ = random_mask_model(rng, n, 0.45)
        else:
            m, _ = random_dag_model(rng, n, float(rng.uniform(0.2, 0.6)))
        y, z, w = random_disjoint_sets(rng, m.agents)
        out.append(_docalculus_verdict(m, y, z, w, 4, 2, int(rng.integers(2 ** 32))))
    return out


def exact_law_untimed_check(digests) -> None:
    _require(probability.reproduce_table1().passed, "Table 1 does not reproduce")
    # a CI test that always answered "independent" passes every verdict check
    _require(any(d is not None and not d[0] and d[3] for d in digests),
             "no unseparated query observed a dependence")


# ---------------------------------------------------------------------------
# solvability: exhaustive profile scans and causal-ordering searches
# ---------------------------------------------------------------------------

def _has_cycle(agents, seen) -> bool:
    left = set(agents)
    while True:
        sources = {a for a in left if not (seen[a] & left)}
        if not sources:
            return bool(left)
        left -= sources


def scan_model(rng, n: int, log2_profiles: int, acyclic: bool):
    """Binary mask model with exactly 2**log2_profiles policy profiles.

    An agent whose field sees k binary coordinates has 2**(2**k) policies, so
    the profile count is fixed by the masks alone and is drawn before the
    model is built.  Acyclic models see only lower-index decisions, so every
    profile solves and the scan visits them all; the others must contain a
    decision cycle.
    """
    agents = tuple(f"A{i}" for i in range(n))
    for _ in range(100_000):
        seen = {a: frozenset(b for b in agents[:i] if rng.random() < 0.5) if acyclic
                else frozenset(b for b in agents if b != a and rng.random() < 0.5)
                for i, a in enumerate(agents)}
        noise = {a: frozenset(b for b in agents if b == a or rng.random() < 0.3)
                 for a in agents}
        bits = sum(2 ** (len(noise[a]) + len(seen[a])) for a in agents)
        if bits == log2_profiles and acyclic != _has_cycle(agents, seen):
            break
    else:
        raise ValueError(f"no {n}-agent model with 2**{log2_profiles} profiles")
    space = binary_space(agents)
    info = {a: model.InformationField.from_mask(space, a, CoordinateMask(noise[a], seen[a]))
            for a in agents}
    return model.WModel(space, info, meta=model.ModelMeta(name="scan-model"))


def _profile_at(m, k: int):
    """Profile k of the scan's mixed-radix order, agent 0 the fastest digit."""
    policies = {}
    for a in m.agents:
        enum = solvability.enumerate_policies(m, a)
        policies[a] = enum.policy_at(k % len(enum))
        k //= len(enum)
    return solvability.PolicyProfile(policies)


def _solvability_verdict(m, check_seed: int) -> Verdict:
    def call():
        return solvability.is_model_solvable(m)

    def check(v):
        _require(v.exhaustive, f"scan was not exhaustive ({v.kind})")
        if v.kind == "UNSOLVABLE":
            first_bad = v.profiles_checked - 1
            _require(v.witness == _profile_at(m, first_bad), "witness is not the scanned profile")
            _require(not solvability.solve(m, v.witness).solvable,
                     "UNSOLVABLE witness solves")
            for k in range(first_bad):
                _require(solvability.solve(m, _profile_at(m, k)).solvable,
                         "scan passed over an earlier unsolvable profile")
        else:
            _require(v.kind == "SOLVABLE_PROVED", f"unexpected verdict {v.kind}")
            for p in solvability.sample_profiles(m, 3, check_seed):
                _require(solvability.solve(m, p).solvable, "proved model has an unsolvable profile")
        return v.kind, v.profiles_checked

    return Verdict(call, check)


def _ordering_verdict(m, must_find: bool | None) -> Verdict:
    """must_find: True for DAG models, False for xor, None when unknown."""
    def call():
        return solvability.find_causal_ordering(m, max_agents=6)

    def check(phi):
        if must_find is not None:
            _require((phi is not None) == must_find,
                     "ordering missing" if must_find else "ordering found for xor")
        if phi is None:
            return None
        _require(solvability.check_causal_ordering(m, phi).ok, "ordering is not causal")
        return phi.orders.tobytes()

    return Verdict(call, check)


# Scan slots of one batch: (agents, log2 of the profile count, acyclic).
# Costs are fixed by the slot, so every batch weighs the same.  Of the 20
# verdicts of a batch, the median falls among the six 256-profile scans and
# the 90th percentile among the three 6-agent ordering searches.
SCAN_SLOTS = ((2, 8, False), (2, 8, False), (2, 8, False), (3, 10, False),
              (3, 10, False)) + ((3, 8, True),) * 6 + ((3, 10, True),) * 3 + (
              (3, 14, True),)
TINY_SCAN_SLOTS = ((2, 8, False), (2, 6, True), (3, 6, True), (3, 8, True))


def solvability_batch(rng, index: int, tiny: bool) -> list[Verdict]:
    slots, order_n = (TINY_SCAN_SLOTS, 4) if tiny else (SCAN_SLOTS, 6)
    out = [_solvability_verdict(scan_model(rng, *slot), int(rng.integers(2 ** 32)))
           for slot in slots]
    for _ in range(3):
        m, _ = random_dag_model(rng, order_n, float(rng.uniform(0.2, 0.5)))
        out.append(_ordering_verdict(m, True))
    m, _ = random_mask_model(rng, order_n, 0.35)
    out.append(_ordering_verdict(m, None))
    out.append(_ordering_verdict(model.builtin("witsenhausen-xor"), False))
    return out


WORKLOADS = {
    "separation": Workload(separation_batch),
    "exact_law": Workload(exact_law_batch, exact_law_untimed_check),
    "solvability": Workload(solvability_batch),
}
