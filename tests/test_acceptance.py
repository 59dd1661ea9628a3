"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Runtime budgets assume warmed kernels (the session
fixture in conftest pays any JIT cost first).
"""

import time
from itertools import permutations

import numpy as np
import pytest

from infodep.fieldcore import ConfigSet, CoordinateMask
from infodep.model import (
    InformationField,
    InterventionSpec,
    Prior,
    builtin,
    extend_profile,
    intervene,
)
from infodep.precedence import (
    closure,
    is_closed,
    precedes,
    precedes_oracle,
    topologically_separated,
)
from infodep.probability import (
    project_dist,
    pushforward,
    reproduce_table1,
    restrict,
    verify_docalculus,
)
from infodep.solvability import (
    CausalOrdering,
    Policy,
    check_causal_ordering,
    find_causal_ordering,
    is_model_solvable,
    sample_profiles,
    solve,
    verify_factorization,
)
from infodep.dsep import equivalence_harness

from conftest import (
    full_mask,
    mutual_observation_model,
    random_context,
    random_disjoint_sets,
    random_dag_model,
    random_mask_model,
    topological_order,
)
from test_solvability import sequential_decisions


class Stopwatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def report(n, text, elapsed, budget):
    print(f"PASS criterion {n}: {text} [{elapsed:.2f}s < {budget:.0f}s]")
    assert elapsed < budget


def test_criterion_1_table1_reproduction():
    with Stopwatch() as sw:
        res = reproduce_table1()
    assert all(r.matches for r in res.rows_a), [
        (r.key, r.shown, r.expected) for r in res.rows_a if not r.matches
    ]
    assert all(r.matches for r in res.rows_b), [
        (r.key, r.shown, r.expected) for r in res.rows_b if not r.matches
    ]
    assert res.columns_a_exactly_equal
    assert res.row_b_01_differs
    row01 = next(r for r in res.rows_b if r.key == ("0", "1"))
    assert row01.shown == ("0.1", "0.474")
    assert res.passed
    report(1, "all 16 + 8 table cells match after rounding; first-table columns"
              " exactly equal; second-table row (0,1) differs", sw.elapsed, 1.0)


def test_criterion_2_fig3_separation(jpcbh_model):
    with Stopwatch() as sw:
        cert = topologically_separated(jpcbh_model, {"X1"}, {"X2"}, {"Y1", "Y2"})
    assert cert is not None
    assert cert.closure_y == frozenset({"X1", "Y1", "xi1"})
    assert cert.closure_z == frozenset({"X2", "Y2", "xi2"})
    report(2, "cyclic six-agent model separates X1 from X2 given {Y1,Y2} with"
              " the documented closures", sw.elapsed, 1.0)


def test_criterion_3_fig4_separation_and_failure(xor_model):
    with Stopwatch() as sw:
        cert = topologically_separated(xor_model, {"X3"}, {"X4"}, {"X0", "X1", "X2"})
        none_cert = topologically_separated(xor_model, {"X3"}, {"X4"}, {"X0", "X1"})
    assert cert is not None
    assert cert.splitting.w_y == frozenset({"X0"})
    assert cert.splitting.w_z == frozenset({"X1", "X2"})
    assert none_cert is None
    report(3, "xor model separates X3 from X4 given the full cycle and not"
              " given {X0,X1}", sw.elapsed, 1.0)


def test_criterion_4_do_calculus_suite(xor_model):
    # Contexts are the full configuration space here: separation is decided
    # on trace fields, which only coarsen on a sub-event, so conditioning on
    # an arbitrary event can couple noise blocks that separation never sees;
    # tests/test_probability.py::TestEventContextScope holds a minimal
    # counterexample and notes/decisions.md the analysis.
    rng = np.random.default_rng(2024)
    checks = 0
    failures = 0
    separated_queries = 0
    with Stopwatch() as sw:
        # cyclic flagship: canonical policies, many sampled priors
        rep = verify_docalculus(
            xor_model, {"X3"}, {"X4"}, {"X0", "X1", "X2"},
            policy_trials=10, prior_trials=40, seed=rng.integers(2**32),
        )
        assert rep.separated
        checks += rep.checks_run
        failures += len(rep.failures)
        separated_queries += 1

        # random solvable models (cyclic mask models and DAG models), random
        # disjoint queries, sampled profiles (unsolvable ones are skipped and
        # counted by the verifier) and sampled full-support priors
        model_budget = 900
        for trial in range(model_budget):
            if checks >= 1000:
                break
            if trial % 3 == 0:
                m = random_mask_model(rng, local_noise=True)
            else:
                m, _ = random_dag_model(rng, n=int(rng.integers(4, 6)),
                                        edge_prob=float(rng.uniform(0.2, 0.6)))
            y, z, w = random_disjoint_sets(rng, m.agents)
            rep = verify_docalculus(
                m, y, z, w, None,
                policy_trials=4, prior_trials=2, seed=rng.integers(2**32),
            )
            if rep.separated:
                separated_queries += 1
                checks += rep.checks_run
                failures += len(rep.failures)
    assert checks >= 1000, f"only {checks} exact checks accumulated"
    assert failures == 0
    report(4, f"{checks} exact independence+dropping checks over"
              f" {separated_queries} separated queries, 0 violations",
           sw.elapsed, 300.0)


def test_criterion_5_equivalence_harness():
    with Stopwatch() as sw:
        runs = [
            equivalence_harness(100, 6, 0.2, seed=11),
            equivalence_harness(100, 6, 0.4, seed=12),
        ]
    total = sum(r.queries for r in runs)
    agreed = sum(r.agreements for r in runs)
    for r in runs:
        assert r.all_agree, r.disagreements[:3]
    assert total == 200 * 15 * 16  # pairs(6) x subsets(<=4 of 4)
    report(5, f"d-separation agrees with topological separation on"
              f" {agreed}/{total} queries over 200 random graphs",
           sw.elapsed, 120.0)


def test_criterion_6_precedence_oracle_and_closure_laws():
    rng = np.random.default_rng(77)
    models = 0
    with Stopwatch() as sw:
        while models < 500:
            m = random_mask_model(rng, local_noise=bool(rng.integers(2)))
            w = frozenset(a for a in m.agents if rng.random() < 0.3)
            ctx = random_context(rng, m.space)
            fast = precedes(m, w, ctx)
            assert fast == precedes_oracle(m, w, ctx), (models, w)
            # closure-operator laws on the same relation
            agents = list(m.agents)
            b = frozenset(a for a in agents if rng.random() < 0.5)
            cl_b = closure(m, b, w, ctx, relation=fast)
            assert b <= cl_b
            assert closure(m, cl_b, w, ctx, relation=fast) == cl_b
            c = b | frozenset(a for a in agents if rng.random() < 0.3)
            assert cl_b <= closure(m, c, w, ctx, relation=fast)
            assert closure(m, (), w, ctx, relation=fast) == frozenset()
            assert is_closed(m, set(agents) - w, w, ctx, relation=fast)  # W is open
            models += 1
    report(6, f"fast conditional precedence equals the exponential oracle on"
              f" {models} random models; closure laws hold", sw.elapsed, 120.0)


def test_criterion_7_solvability_ground_truths(xor_model):
    rng = np.random.default_rng(31)
    with Stopwatch() as sw:
        sol = solve(xor_model, xor_model.canonical_profile)
        assert sol.solvable and set(sol.counts.tolist()) == {1}

        mutual = mutual_observation_model()
        verdict = is_model_solvable(mutual)
        assert verdict.kind == "UNSOLVABLE" and verdict.exhaustive
        assert not solve(mutual, verdict.witness).solvable

        checked_profiles = 0
        dag_models = [builtin("common-cause")]
        for k in range(3):
            dag_models.append(random_dag_model(rng, n=5, edge_prob=0.4)[0])
        for m in dag_models:
            g = m.meta.source_dag
            for profile in sample_profiles(m, 100, rng):
                s = solve(m, profile)
                assert s.solvable
                for om in range(m.space.n_omega):
                    omega = m.space.omega_labels_at(om)
                    assert s.solution(omega).decision_part == \
                        sequential_decisions(m, g, profile, omega)
                checked_profiles += 1
    report(7, f"xor uniquely solvable per nature point; mutual-observation"
              f" UNSOLVABLE with witness; {checked_profiles} DAG profiles match"
              f" the sequential oracle", sw.elapsed, 60.0)


def test_criterion_8_factorization(xor_model):
    # The factorization that topological separation implies, checked with all
    # of W's decisions given: on each sampled solvable profile the closure
    # blocks' decisions outside W are functions of their own noises and u_W,
    # and each u_W level set of nature is a product over the blocks.  The
    # fixed-split form (w_y decisions as outputs of the y block) is false on
    # a few percent of these profiles, for every splitting; pinned
    # counterexamples are in tests/test_solvability.py and the analysis in
    # notes/decisions.md.
    rng = np.random.default_rng(55)
    cert = topologically_separated(xor_model, {"X3"}, {"X4"}, {"X0", "X1", "X2"})
    with Stopwatch() as sw:
        verified = 0
        attempts = 0
        counterexamples = []
        while verified < 100:
            attempts += 1
            assert attempts < 40_000, "could not collect 100 solvable profiles"
            profile = sample_profiles(xor_model, 1, rng)[0]
            if not solve(xor_model, profile).solvable:
                continue
            rep = verify_factorization(
                xor_model, profile, None, cert, {"X3"}, {"X4"}, {"X0", "X1", "X2"}
            )
            verified += 1
            if not rep.passed:
                counterexamples.append(
                    [(c.name, c.witness) for c in rep.checks if not c.passed]
                )
    elapsed = sw.elapsed
    assert elapsed < 120.0
    assert not counterexamples, (
        f"{len(counterexamples)} of {verified} solvable sampled profiles fail the"
        f" W-pinned factorization for the splitting w_y={sorted(cert.splitting.w_y)},"
        f" w_z={sorted(cert.splitting.w_z)}; first counterexample:"
        f" {counterexamples[0]}"
    )
    report(8, f"solution map factorizes through the certificate blocks on"
              f" {verified} solvable sampled profiles ({attempts} sampled)",
           elapsed, 120.0)


def test_criterion_9_causality(xor_model, common_cause_model, kuh_model):
    with Stopwatch() as sw:
        for m, order in ((common_cause_model, ("Z", "T", "Y")),
                         (kuh_model, topological_order(kuh_model.meta.source_dag))):
            phi = CausalOrdering.constant(m, order)
            assert check_causal_ordering(m, phi).ok
        assert find_causal_ordering(xor_model) is None
        # the exhaustive search result is a computation of this artifact,
        # cross-checked here against every constant ordering
        for order in permutations(xor_model.agents):
            assert not check_causal_ordering(
                xor_model, CausalOrdering.constant(xor_model, order)
            ).ok
    report(9, "constant topological orderings are causal on the DAG builtins;"
              " exhaustive search finds no ordering for the xor model",
           sw.elapsed, 120.0)


def test_criterion_10_intervention_consistency(common_cause_model):
    m = common_cause_model
    rng = np.random.default_rng(123)
    with Stopwatch() as sw:
        repl = {"T": InformationField.from_mask(
            m.space, "T", CoordinateMask({"T"}, frozenset())
        )}
        spec = InterventionSpec(("T",), repl)
        m2 = intervene(m, spec)

        base_mask = full_mask(m.space)
        from fractions import Fraction

        for _ in range(5):
            profile = sample_profiles(m, 1, rng)[0]
            prior = Prior.sample(m.space, rng)
            lifted = extend_profile(
                m, m2, spec, profile,
                replacement_policies={"T": Policy("T", np.array([0, 1]))},
            )
            masses = dict(prior.masses)
            masses["I"] = {"0": Fraction(1, 2), "1": Fraction(1, 2)}
            q_base = pushforward(m, profile, prior)
            q_til = pushforward(m2, lifted, Prior(masses))
            h0 = ConfigSet.from_pins(m2.space, decision={"I": "0"})
            assert project_dist(restrict(q_til, h0), base_mask) == \
                project_dist(q_base, base_mask)

        h1 = ConfigSet.from_pins(m2.space, decision={"I": "1"})
        assert precedes(m2).holds("Z", "T")
        assert not precedes(m2, ctx=h1).holds("Z", "T")
    report(10, "switch-0 conditioning reproduces the base law exactly;"
               " switch-1 context drops the replaced arc", sw.elapsed, 10.0)
