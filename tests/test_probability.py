from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from infodep.fieldcore import ConfigSet, CoordinateMask, FieldcoreError, SpaceMismatchError
from infodep.model import InterventionSpec, Prior, builtin, intervene
from infodep.probability import (
    CondQuery,
    ZeroMassContextError,
    cond_independent,
    conditional,
    display_3dec,
    project_dist,
    pushforward,
    reproduce_table1,
    restrict,
    verify_docalculus,
)
from infodep.solvability import (
    PolicyProfile,
    UnsolvableProfileError,
    enumerate_policies,
    sample_profiles,
)

from conftest import full_mask, mutual_observation_model, random_dag_model


def u_mask(agents):
    return CoordinateMask(frozenset(), frozenset(agents))


def xor_oracle_joint():
    """Brute-force law of (X0..X4): enumerate the 32 noise tuples directly."""
    p1 = Fraction(1, 10)
    joint = {}
    for ns in product((0, 1), repeat=5):
        n0, n1, n2, n3, n4 = ns
        x3, x4 = n3, n4
        sols = [
            (x0, x1, x2)
            for x0, x1, x2 in product((0, 1), repeat=3)
            if x0 == ((x1 & (1 - x2)) ^ n0 ^ x3)
            and x1 == ((x2 & (1 - x0)) ^ n1 ^ x4)
            and x2 == ((x0 & (1 - x1)) ^ n2)
        ]
        assert len(sols) == 1
        h = sols[0] + (x3, x4)
        mass = Fraction(1)
        for n in ns:
            mass *= p1 if n else 1 - p1
        joint[h] = joint.get(h, Fraction(0)) + mass
    return joint


class TestPushforward:
    def test_xor_matches_enumeration_oracle(self, xor_model):
        dist = pushforward(xor_model, xor_model.canonical_profile)
        got = project_dist(dist, u_mask(xor_model.agents))
        want = {tuple(str(v) for v in k): p for k, p in xor_oracle_joint().items()}
        assert got == want

    def test_point_mass_prior(self, xor_model):
        prior = Prior({
            a: {"0": Fraction(1), "1": Fraction(0)} for a in xor_model.agents
        })
        dist = pushforward(xor_model, xor_model.canonical_profile, prior)
        assert len(dist.support) == 1
        (idx,) = dist.support
        assert dist.support[idx] == 1

    def test_independent_agents_give_product_law(self):
        rng = np.random.default_rng(2)
        m, _ = random_dag_model(rng, n=3, edge_prob=0.0)  # edgeless: all independent
        # identity policies: each agent plays its own noise
        profile = {}
        for a in m.agents:
            for pol in enumerate_policies(m, a):
                if list(pol.table) == [0, 1]:
                    profile[a] = pol
        prior = Prior.sample(m.space, rng)
        dist = pushforward(m, PolicyProfile(profile), prior)
        for cfg_idx, mass in dist.support.items():
            cfg = m.space.config_at(cfg_idx)
            expect = Fraction(1)
            for a in m.agents:
                expect *= prior.mass(a, cfg.nature_part[a])
            assert mass == expect

    def test_unsolvable_profile_rejected(self):
        m = mutual_observation_model()
        from infodep.solvability import Policy

        profile = PolicyProfile({
            "a": Policy("a", np.array([0, 1])),
            "b": Policy("b", np.array([0, 1])),
        })
        with pytest.raises(UnsolvableProfileError):
            pushforward(m, profile)

    def test_masses_sum_to_one_exactly(self, xor_model):
        dist = pushforward(xor_model, xor_model.canonical_profile)
        assert sum(dist.support.values(), Fraction(0)) == 1


class TestConditional:
    def test_xor_singleton_value(self, xor_model):
        dist = pushforward(xor_model, xor_model.canonical_profile)
        table = conditional(dist, CondQuery(u_mask({"X4"}), u_mask({"X0", "X1", "X2", "X3"})))
        assert table.rows[("0", "0", "0", "0")][("1",)] == Fraction(1, 82)

    def test_rows_sum_to_one(self, xor_model):
        dist = pushforward(xor_model, xor_model.canonical_profile)
        table = conditional(dist, CondQuery(u_mask({"X4"}), u_mask({"X0", "X1"})))
        for row in table.rows.values():
            assert sum(row.values(), Fraction(0)) == 1

    def test_full_conditioning_is_degenerate(self, xor_model):
        dist = pushforward(xor_model, xor_model.canonical_profile)
        table = conditional(dist, CondQuery(
            u_mask({"X4"}), full_mask(xor_model.space)
        ))
        for g, row in table.rows.items():
            assert list(row.values()) == [Fraction(1)]

    def test_zero_mass_context_flagged(self, xor_model):
        dist = pushforward(xor_model, xor_model.canonical_profile)
        # no solution puts X3's decision opposite to its noise
        mask = xor_model.space.coord_values(("n", "X3")) != \
            xor_model.space.coord_values(("u", "X3"))
        ctx = ConfigSet(xor_model.space, mask)
        table = conditional(dist, CondQuery(u_mask({"X4"}), u_mask({"X0"}), ctx))
        assert table.empty_context and not table.rows


class TestCondIndependent:
    def test_xor_independent_given_full_cycle(self, xor_model):
        dist = pushforward(xor_model, xor_model.canonical_profile)
        res = cond_independent(dist, u_mask({"X3"}), u_mask({"X4"}),
                               u_mask({"X0", "X1", "X2"}))
        assert res.independent

    def test_xor_dependent_given_partial_cycle(self, xor_model):
        dist = pushforward(xor_model, xor_model.canonical_profile)
        res = cond_independent(dist, u_mask({"X3"}), u_mask({"X4"}),
                               u_mask({"X0", "X1"}))
        assert not res.independent
        given, _, _ = res.witness
        assert given == ("0", "1")

    def test_product_distribution_always_independent(self):
        rng = np.random.default_rng(4)
        m, _ = random_dag_model(rng, n=4, edge_prob=0.0)
        profile = sample_profiles(m, 1, rng)[0]
        dist = pushforward(m, profile, Prior.sample(m.space, rng))
        res = cond_independent(dist, u_mask({m.agents[0]}), u_mask({m.agents[1]}),
                               u_mask(set()))
        assert res.independent

    def test_zero_mass_context_raises(self, xor_model):
        dist = pushforward(xor_model, xor_model.canonical_profile)
        mask = xor_model.space.coord_values(("n", "X3")) != \
            xor_model.space.coord_values(("u", "X3"))
        ctx = ConfigSet(xor_model.space, mask)
        with pytest.raises(ZeroMassContextError):
            cond_independent(dist, u_mask({"X3"}), u_mask({"X4"}), u_mask(set()), ctx)


class TestForeignContext:
    """A context from another space is refused, even one of the same size."""

    @pytest.mark.parametrize("name", ["common-cause", "witsenhausen-xor"])
    def test_probability_layer(self, name, tikka_model):
        m = builtin(name)
        ctx = ConfigSet.from_pins(tikka_model.space, decision={"s": "1"})
        profile = m.canonical_profile or sample_profiles(m, 1, np.random.default_rng(0))[0]
        d = pushforward(m, profile, Prior.uniform(m.space))
        a, b = m.agents[:2]
        with pytest.raises(SpaceMismatchError):
            conditional(d, CondQuery(u_mask({a}), u_mask({b}), ctx))
        with pytest.raises(SpaceMismatchError):
            cond_independent(d, u_mask({a}), u_mask({b}), u_mask(()), ctx)
        with pytest.raises(SpaceMismatchError):
            verify_docalculus(m, {a}, {b}, ctx=ctx, policy_trials=1, prior_trials=1)


class TestTable1:
    def test_reproduction_passes(self):
        res = reproduce_table1()
        assert res.passed

    def test_exact_rationals_match_oracle(self):
        joint = xor_oracle_joint()

        def oracle_cond(fixed):
            num = den = Fraction(0)
            for h, mass in joint.items():
                if all(h[i] == v for i, v in fixed.items()):
                    den += mass
                    if h[4] == 1:
                        num += mass
            return num / den

        res = reproduce_table1()
        for row in res.rows_a:
            x0, x1, x2 = (int(v) for v in row.key)
            assert row.exact[0] == oracle_cond({0: x0, 1: x1, 2: x2, 3: 0})
            assert row.exact[1] == oracle_cond({0: x0, 1: x1, 2: x2, 3: 1})
        for row in res.rows_b:
            x0, x1 = (int(v) for v in row.key)
            assert row.exact[0] == oracle_cond({0: x0, 1: x1, 3: 0})
            assert row.exact[1] == oracle_cond({0: x0, 1: x1, 3: 1})

    def test_columns_exactly_equal_in_table_a(self):
        assert reproduce_table1().columns_a_exactly_equal

    def test_display_rule(self):
        assert display_3dec(Fraction(1, 2)) == "0.5"
        assert display_3dec(Fraction(1, 10)) == "0.1"
        assert display_3dec(Fraction(1, 42)) == "0.023"
        assert display_3dec(Fraction(1, 82)) == "0.012"
        assert display_3dec(Fraction(73, 154)) == "0.474"
        assert display_3dec(Fraction(0)) == "0"
        assert display_3dec(Fraction(1)) == "1"


class TestVerifyDoCalculus:
    def test_xor_separated_zero_failures(self, xor_model):
        rep = verify_docalculus(
            xor_model, {"X3"}, {"X4"}, {"X0", "X1", "X2"},
            policy_trials=20, prior_trials=4, seed=0,
        )
        assert rep.separated and rep.ok
        assert rep.checks_run >= 5  # canonical profile times priors

    def test_empty_z_is_trivial(self, xor_model):
        rep = verify_docalculus(
            xor_model, {"X3"}, (), {"X0", "X1", "X2"},
            policy_trials=5, prior_trials=2, seed=0,
        )
        assert rep.separated and rep.ok and rep.closure_z == frozenset()

    def test_not_separated_reports_corroboration(self, xor_model):
        rep = verify_docalculus(
            xor_model, {"X3"}, {"X4"}, {"X0", "X1"},
            policy_trials=5, prior_trials=2, seed=0,
        )
        assert not rep.separated
        assert rep.certificate is None
        assert rep.ci_violations_observed > 0

    def test_precedence_relation_computed_once(self, xor_model, monkeypatch):
        from infodep import precedence, probability

        calls = []
        original = precedence.precedes

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(precedence, "precedes", counting)
        monkeypatch.setattr(probability, "precedes", counting)
        rep = verify_docalculus(
            xor_model, {"X3"}, {"X4"}, {"X0", "X1", "X2"},
            policy_trials=2, prior_trials=1, seed=0,
        )
        assert rep.separated and rep.ok
        assert len(calls) == 1

    def test_zero_prior_trials_without_model_prior_rejected(self):
        rng = np.random.default_rng(0)
        m, _ = random_dag_model(rng, n=3, edge_prob=0.3)
        with pytest.raises(FieldcoreError):
            verify_docalculus(m, {m.agents[0]}, {m.agents[1]}, (),
                              policy_trials=1, prior_trials=0)


class TestRule1:
    """Rule 1 is the one-rule verifier under pinned decisions, with w = x."""

    def test_tikka_context_drop(self, tikka_model):
        rep = verify_docalculus(
            tikka_model, {"b"}, {"a"}, (),
            ConfigSet.from_pins(tikka_model.space, decision={"s": "0"}),
            policy_trials=40, prior_trials=3, seed=2,
        )
        assert rep.separated and rep.ok
        assert rep.checks_run > 0

    def test_active_context_not_separated(self, tikka_model):
        rep = verify_docalculus(
            tikka_model, {"b"}, {"a"}, (),
            ConfigSet.from_pins(tikka_model.space, decision={"s": "1"}),
            policy_trials=40, prior_trials=3, seed=2,
        )
        assert not rep.separated
        assert rep.ci_violations_observed > 0

    def test_no_pins_reduces_to_docalc(self, xor_model):
        r1 = verify_docalculus(
            xor_model, {"X3"}, {"X4"}, {"X0", "X1", "X2"},
            ConfigSet.from_pins(xor_model.space, decision={}),
            policy_trials=3, prior_trials=1, seed=5,
        )
        r2 = verify_docalculus(
            xor_model, {"X3"}, {"X4"}, {"X0", "X1", "X2"},
            ConfigSet.full(xor_model.space),
            policy_trials=3, prior_trials=1, seed=5,
        )
        assert r1.separated == r2.separated
        assert r1.checks_run == r2.checks_run and r1.ok and r2.ok

    def test_bad_pin_label_rejected(self, tikka_model):
        with pytest.raises(FieldcoreError):
            ConfigSet.from_pins(tikka_model.space, decision={"s": "7"})


class TestLemmaBlocks:
    def test_theta_independent_given_upsilon_blocks(self, xor_model):
        # the certificate blocks: theta = (u_X3, u_X4), upsilon = (u_X0; u_X1,u_X2)
        dist = pushforward(xor_model, xor_model.canonical_profile)
        res = cond_independent(
            dist, u_mask({"X3"}), u_mask({"X4"}), u_mask({"X0", "X1", "X2"})
        )
        assert res.independent
        # and the whole y-block is independent of the whole z-block given W
        res2 = cond_independent(
            dist, u_mask({"X0", "X3"}), u_mask({"X1", "X2", "X4"}),
            u_mask({"X0", "X1", "X2"}),
        )
        assert res2.independent


def coupling_event_example(n=2, pair=(0, 1)):
    """n nature-only agents playing their own noise, and the event that the
    decisions of the agents at positions `pair` are equal."""
    rng = np.random.default_rng(0)
    m, _ = random_dag_model(rng, n=n, edge_prob=0.0)
    a, b = (m.agents[k] for k in pair)
    # identity policies: each agent plays its own noise
    profile = {}
    for ag in m.agents:
        for pol in enumerate_policies(m, ag):
            if list(pol.table) == [0, 1]:
                profile[ag] = pol
    coupled = ConfigSet(m.space, np.asarray(
        m.space.coord_values(("u", a)) == m.space.coord_values(("u", b))
    ))
    return m, PolicyProfile(profile), coupled


class TestEventContextScope:
    def test_coupling_event_context_defeats_separation_sufficiency(self):
        # Two agents with nature-only fields are topologically separated for
        # ANY context: trace fields only coarsen on a sub-event, so no
        # precedence arc can appear.  But conditioning the pushforward on the
        # coupling event {u_a = u_b} makes the decisions dependent.  This
        # pins down why theorem-level suites quantify over full contexts
        # only: sufficiency cannot survive arbitrary event conditioning.
        m, profile, coupled = coupling_event_example()
        a, b = m.agents
        from infodep.precedence import topologically_separated

        cert = topologically_separated(m, {a}, {b}, (), coupled)
        assert cert is not None  # separation holds on the coupled context...
        dist = pushforward(m, profile, Prior.uniform(m.space))
        res = cond_independent(dist, u_mask({a}), u_mask({b}), u_mask(set()), coupled)
        assert not res.independent  # ...but exact independence fails there
        # the verifier reports such failures honestly (sampled profiles
        # include coupling ones: each agent has only four policies)
        rep = verify_docalculus(m, {a}, {b}, (), coupled,
                                policy_trials=16, prior_trials=1, seed=1)
        assert rep.separated and not rep.ok

    @pytest.mark.parametrize("n, pair", [(2, (0, 1)), (3, (0, 2)), (3, (1, 2))])
    def test_coupling_event_fails_the_rectangle_check(self, n, pair):
        # Y and Z are the first two agents, a third is the residual.  Each
        # block is a function of its own noise, but the nature points reaching
        # the context have equal noises on the coupled pair, so they are no
        # product of the blocks' noises.
        from infodep.precedence import topologically_separated
        from infodep.solvability import verify_factorization

        m, profile, coupled = coupling_event_example(n, pair)
        y, z = {m.agents[0]}, {m.agents[1]}
        i, j = (m.agents[k] for k in pair)
        cert = topologically_separated(m, y, z, (), coupled)
        rep = verify_factorization(m, profile, coupled, cert, y, z, ())
        assert not rep.passed and rep.domain_size == 2 ** (n - 1)
        checks = {c.name: c for c in rep.checks}
        assert checks["y-block"].passed and checks["z-block"].passed
        rect = checks["rectangle"]
        assert not rect.passed
        first, second = rect.witness
        # both points lie in the domain; a swap across the pair leaves it
        assert first[i] == first[j] and second[i] == second[j]
        assert first[i] != second[i]


class TestInterventionConsistency:
    def test_common_cause_switch_zero_recovers_base(self, common_cause_model):
        from infodep.model import InformationField, extend_profile
        from infodep.solvability import Policy

        m = common_cause_model
        repl = {"T": InformationField.from_mask(
            m.space, "T", CoordinateMask({"T"}, frozenset())
        )}
        spec = InterventionSpec(("T",), repl)
        m2 = intervene(m, spec)
        rng = np.random.default_rng(9)
        base_mask = full_mask(m.space)
        for _ in range(4):
            profile = sample_profiles(m, 1, rng)[0]
            prior = Prior.sample(m.space, rng)
            lifted = extend_profile(
                m, m2, spec, profile,
                replacement_policies={"T": Policy("T", np.array([0, 1]))},
            )
            masses = dict(prior.masses)
            masses["I"] = {"0": Fraction(2, 3), "1": Fraction(1, 3)}
            q_base = pushforward(m, profile, prior)
            q_til = pushforward(m2, lifted, Prior(masses))
            h0 = ConfigSet.from_pins(m2.space, decision={"I": "0"})
            got = project_dist(restrict(q_til, h0), base_mask)
            assert got == project_dist(q_base, base_mask)
