from fractions import Fraction

import numpy as np
import pytest

from infodep.fieldcore import (
    ConfigSet,
    ConfigSpace,
    Configuration,
    CoordinateMask,
    FieldcoreError,
    FiniteSpace,
    Partition,
    partition_from_codes,
)
from infodep.model import (
    Dag,
    InformationField,
    InterventionSpec,
    ModelError,
    Prior,
    ScmSpec,
    WModel,
    builtin,
    builtin_names,
    dag_to_idm,
    extend_profile,
    intervene,
    scm_to_idm,
    validate_model,
)
from infodep.precedence import precedes
from infodep.solvability import Policy, PolicyProfile, sample_policies, sample_profiles, solve
from infodep import probability

from conftest import binary_spaces, context_model, full_mask, random_dag_model


def common_cause_scm():
    return ScmSpec(
        parents={"Z": (), "T": ("Z",), "Y": ("Z", "T")},
        assignments={
            "Z": lambda w, u: w,
            "T": lambda w, u: str(int(w) ^ int(u["Z"])),
            "Y": lambda w, u: str(int(w) ^ (int(u["Z"]) & int(u["T"]))),
        },
    )


class TestValidateModel:
    def test_common_cause_passes(self, common_cause_model):
        assert validate_model(common_cause_model, require_local_noise=True).ok

    def test_foreign_noise_fails_local_noise_with_witness(self):
        agents = ("a", "b")
        nature, decisions = binary_spaces(agents)
        from infodep.fieldcore import ConfigSpace

        space = ConfigSpace(agents, nature, decisions)
        info = {
            "a": InformationField.from_mask(space, "a", CoordinateMask({"a", "b"}, frozenset())),
            "b": InformationField.from_mask(space, "b", CoordinateMask({"b"}, frozenset())),
        }
        m = WModel(space, info)
        report = validate_model(m, require_local_noise=True)
        assert not report.ok
        bad = [c for c in report.checks if not c.passed]
        assert bad and bad[0].agent == "a" and bad[0].check == "local-noise"
        c1, c2 = bad[0].witness
        assert c1.nature_part["a"] == c2.nature_part["a"]
        assert c1.nature_part["b"] != c2.nature_part["b"]

    def test_xor_passes_local_noise(self, xor_model):
        assert validate_model(xor_model, require_local_noise=True).ok

    def test_all_builtins_pass_local_noise(self):
        for name in builtin_names():
            assert validate_model(builtin(name), require_local_noise=True).ok, name


class TestScmToIdm:
    def test_common_cause_masks_match_graph(self):
        m = scm_to_idm(common_cause_scm(), *binary_spaces(("Z", "T", "Y")),
                       agent_order=("Z", "T", "Y"))
        assert m.info["Y"].mask == CoordinateMask({"Y"}, {"Z", "T"})
        assert m.info["T"].mask == CoordinateMask({"T"}, {"Z"})
        assert m.info["Z"].mask == CoordinateMask({"Z"}, frozenset())
        assert m.canonical_profile is not None

    def test_empty_parents_gives_nature_only_fields(self):
        spec = ScmSpec(
            parents={"a": (), "b": ()},
            assignments={"a": lambda w, u: w, "b": lambda w, u: w},
        )
        m = scm_to_idm(spec, *binary_spaces(("a", "b")), agent_order=("a", "b"))
        for a in m.agents:
            assert m.info[a].mask == CoordinateMask({a}, frozenset())

    def test_xor_masks(self, xor_model):
        expected = {
            "X0": {"X1", "X2", "X3"},
            "X1": {"X0", "X2", "X4"},
            "X2": {"X0", "X1"},
            "X3": set(),
            "X4": set(),
        }
        for a, deps in expected.items():
            assert xor_model.info[a].mask == CoordinateMask({a}, frozenset(deps))

    def test_unknown_parent_rejected(self):
        spec = ScmSpec(parents={"a": ("q",)}, assignments={"a": lambda w, u: w})
        with pytest.raises(ModelError):
            scm_to_idm(spec, *binary_spaces(("a",)), agent_order=("a",))

    def test_precedence_recovers_parents(self):
        m = scm_to_idm(common_cause_scm(), *binary_spaces(("Z", "T", "Y")),
                       agent_order=("Z", "T", "Y"))
        rel = precedes(m)
        assert rel.predecessors("Y") == {"Z", "T"}
        assert rel.predecessors("T") == {"Z"}
        assert rel.predecessors("Z") == frozenset()


class TestDagToIdm:
    def test_matches_scm_fields(self, common_cause_model):
        m = scm_to_idm(common_cause_scm(), *binary_spaces(("Z", "T", "Y")),
                       agent_order=("Z", "T", "Y"))
        for a in m.agents:
            assert m.info[a].partition == common_cause_model.info[a].partition
        assert common_cause_model.canonical_profile is None

    def test_edgeless_dag(self):
        g = Dag(("a", "b"), frozenset())
        m = dag_to_idm(g)
        for a in m.agents:
            assert m.info[a].mask == CoordinateMask({a}, frozenset())

    def test_cyclic_graph_accepted(self, jpcbh_model):
        assert jpcbh_model.meta.source_dag is not None
        assert not jpcbh_model.meta.source_dag.is_acyclic()
        assert jpcbh_model.info["Y1"].mask == CoordinateMask({"Y1"}, {"xi1", "Y2"})

    def test_self_loop_rejected(self):
        with pytest.raises(ModelError):
            dag_to_idm(Dag(("a",), {("a", "a")}))


def extend_profile_oracle(base, intervened, spec, base_profile,
                          replacement_policies=None, switch_policy=None):
    """Reference for `extend_profile`: each atom's entry read at its
    representative through `Configuration` objects and `atom_of`."""
    replacement_policies = dict(replacement_policies or {})
    targets = set(spec.targets)
    i_name = spec.switch_agent
    policies = {}
    for a in base.agents:
        f = intervened.info[a].partition
        table = np.empty(f.atom_count, dtype=np.int64)
        for atom, rep in enumerate(f.representatives()):
            cfg = intervened.space.config_at(rep)
            base_cfg = Configuration(
                base.space,
                {x: cfg.nature_part[x] for x in base.agents},
                {x: cfg.decision_part[x] for x in base.agents},
            )
            if a in targets and cfg.decision_part[i_name] == "1":
                repl = replacement_policies.get(a)
                if repl is None:
                    table[atom] = 0
                else:
                    atom_r = spec.replacement_fields[a].partition.atom_of(base_cfg)
                    table[atom] = repl.table[atom_r]
            else:
                atom_b = base.info[a].partition.atom_of(base_cfg)
                table[atom] = base_profile[a].table[atom_b]
        policies[a] = Policy(a, table)
    if switch_policy is None:
        f = intervened.info[i_name].partition
        table = np.empty(f.atom_count, dtype=np.int64)
        for atom, rep in enumerate(f.representatives()):
            cfg = intervened.space.config_at(rep)
            table[atom] = intervened.decisions[i_name].index(cfg.nature_part[i_name])
        switch_policy = Policy(i_name, table)
    policies[i_name] = switch_policy
    return PolicyProfile(policies)


def nature_only_replacement(m, targets):
    return {
        z: InformationField.from_mask(m.space, z, CoordinateMask({z}, frozenset()))
        for z in targets
    }


def ternary_decision_field(m, owner):
    """A field of `owner` on a space with m's agent names and nature but
    ternary decisions, so its atoms are indexed by other configurations."""
    decisions = {a: FiniteSpace(f"u[{a}]", ("0", "1", "2")) for a in m.agents}
    other = ConfigSpace(m.agents, dict(m.nature), decisions)
    return InformationField.from_mask(other, owner, CoordinateMask({owner}, frozenset()))


class TestIntervene:
    def test_structure(self, common_cause_model):
        m = common_cause_model
        spec = InterventionSpec(("T",), nature_only_replacement(m, ("T",)))
        m2 = intervene(m, spec)
        assert m2.agents == ("Z", "T", "Y", "I")
        assert m2.nature["I"].size == 2 and m2.decisions["I"].size == 2
        assert validate_model(m2, require_local_noise=True).ok
        # switch agent sees only its own noise
        assert m2.info["I"].mask == CoordinateMask({"I"}, frozenset())
        # prior gains the switch factor
        assert m2.prior.mass("I", "1") == Fraction(1, 2)

    def test_empty_targets_only_adds_isolated_switch(self, common_cause_model):
        m = common_cause_model
        m2 = intervene(m, InterventionSpec((), {}))
        rel = precedes(m2)
        assert rel.predecessors("I") == frozenset()
        for a in m.agents:
            assert rel.predecessors(a) == precedes(m).predecessors(a)

    def test_precedence_dropped_on_switch_context(self, common_cause_model):
        m = common_cause_model
        m2 = intervene(m, InterventionSpec(("T",), nature_only_replacement(m, ("T",))))
        h1 = ConfigSet.from_pins(m2.space, decision={"I": "1"})
        h0 = ConfigSet.from_pins(m2.space, decision={"I": "0"})
        assert not precedes(m2, ctx=h1).holds("Z", "T")
        assert precedes(m2, ctx=h0).holds("Z", "T")
        assert precedes(m2).holds("Z", "T")
        assert precedes(m2).holds("I", "T")

    def test_unknown_target_rejected(self, common_cause_model):
        m = common_cause_model
        field = InformationField.from_mask(m.space, "Q", CoordinateMask({"Z"}, frozenset()))
        with pytest.raises(ModelError):
            intervene(m, InterventionSpec(("Q",), {"Q": field}))

    def test_degenerate_switch_prob_rejected(self, common_cause_model):
        with pytest.raises(ModelError):
            InterventionSpec(
                ("T",), nature_only_replacement(common_cause_model, ("T",)),
                switch_prob=Fraction(1),
            )

    def test_replacement_on_resized_space_rejected(self, common_cause_model):
        m = common_cause_model
        spec = InterventionSpec(("T",), {"T": ternary_decision_field(m, "T")})
        with pytest.raises(ModelError, match="replacement field for 'T' lives on a different"):
            intervene(m, spec)

    def test_model_field_on_resized_space_rejected(self, common_cause_model):
        m = common_cause_model
        info = dict(m.info, T=ternary_decision_field(m, "T"))
        with pytest.raises(ModelError, match="field of 'T' lives on a different space"):
            WModel(m.space, info, prior=m.prior)

    def test_partial_domain_replacement_rejected(self, common_cause_model):
        # atoms of -1 outside a context would silently share one lifted
        # atom, so a partition must label every configuration
        m = common_cause_model
        f = m.info["T"].partition
        outside = ~ConfigSet.from_pins(m.space, nature={"Z": "0"}).member_mask
        atoms = np.where(outside, -1, f.atom_index)
        with pytest.raises(FieldcoreError, match="nonnegative"):
            Partition(m.space, atoms, f.atom_count)

    @pytest.mark.parametrize("seed", range(6))
    def test_extend_profile_matches_oracle(self, seed):
        rng = np.random.default_rng(700 + seed)
        for case in range(8):
            if case % 2:
                m = context_model(rng)
            else:
                m, _ = random_dag_model(rng, n=int(rng.integers(2, 5)))
            targets = tuple(str(t) for t in rng.choice(
                m.agents, size=min(len(m.agents), int(rng.integers(1, 3))), replace=False))
            repl = {}
            for z in targets:
                raw = rng.integers(0, 3, m.space.n_configs)
                repl[z] = InformationField(z, partition_from_codes(m.space, raw))
            spec = InterventionSpec(targets, repl, switch_agent=f"I{case}")
            m2 = intervene(m, spec)
            profile = sample_profiles(m, 1, rng)[0]
            repl_pols = {
                z: Policy(z, rng.integers(0, m.decisions[z].size, f.partition.atom_count))
                for z, f in repl.items() if rng.random() < 0.6
            }
            switch_pol = (sample_policies(m2, spec.switch_agent, 1, rng)[0]
                          if rng.random() < 0.5 else None)
            got = extend_profile(m, m2, spec, profile, repl_pols, switch_pol)
            want = extend_profile_oracle(m, m2, spec, profile, repl_pols, switch_pol)
            assert got == want

    def test_base_law_recovered_on_switch_zero(self, common_cause_model):
        m = common_cause_model
        spec = InterventionSpec(("T",), nature_only_replacement(m, ("T",)))
        m2 = intervene(m, spec)
        rng = np.random.default_rng(3)
        base_mask = full_mask(m.space)
        for _ in range(3):
            profile = sample_profiles(m, 1, rng)[0]
            prior = Prior.sample(m.space, rng)
            repl = {"T": Policy("T", np.array([0, 1]))}
            lifted = extend_profile(m, m2, spec, profile, replacement_policies=repl)
            masses = dict(prior.masses)
            masses["I"] = {"0": Fraction(1, 2), "1": Fraction(1, 2)}
            q_base = probability.pushforward(m, profile, prior)
            q_til = probability.pushforward(m2, lifted, Prior(masses))
            h0 = ConfigSet.from_pins(m2.space, decision={"I": "0"})
            got = probability.project_dist(probability.restrict(q_til, h0), base_mask)
            want = probability.project_dist(q_base, base_mask)
            assert got == want


class TestBuiltins:
    def test_xor_registry_entry(self, xor_model):
        assert len(xor_model.agents) == 5
        assert all(xor_model.nature[a].size == 2 for a in xor_model.agents)
        assert xor_model.prior.mass("X3", "1") == Fraction(1, 10)
        assert xor_model.meta.provenance == "PAPER"

    def test_jpcbh_edges(self, jpcbh_model):
        g = jpcbh_model.meta.source_dag
        assert set(g.edges) == {
            ("xi1", "X1"), ("xi2", "X2"), ("xi1", "Y1"), ("xi2", "Y2"),
            ("Y2", "X1"), ("Y1", "X2"), ("Y2", "Y1"), ("Y1", "Y2"),
        }

    def test_kuh_flagged_reconstructed(self, kuh_model):
        assert kuh_model.meta.provenance == "RECONSTRUCTED"

    def test_unknown_name(self):
        with pytest.raises(ModelError):
            builtin("nope")

    def test_spirtes_not_solvable(self, spirtes_model):
        sol = solve(spirtes_model, spirtes_model.canonical_profile)
        assert not sol.solvable
        hist = {}
        for c in sol.counts:
            hist[int(c)] = hist.get(int(c), 0) + 1
        assert hist == {0: 8, 1: 67, 2: 4, 3: 2}


class TestPrior:
    def test_must_sum_to_one(self):
        with pytest.raises(ModelError):
            Prior({"a": {"0": Fraction(1, 3), "1": Fraction(1, 3)}})

    def test_negative_mass_rejected(self):
        with pytest.raises(ModelError):
            Prior({"a": {"0": Fraction(3, 2), "1": Fraction(-1, 2)}})

    @pytest.mark.parametrize("dist, message", [
        ({"0": Fraction(1, 3), "1": Fraction(1, 3)}, "does not sum to one exactly"),
        ({"0": Fraction(2, 3), "1": Fraction(2, 3)}, "does not sum to one exactly"),
        ({"0": Fraction(1, 2), "1": Fraction(1, 3), "2": Fraction(1, 7)},
         "does not sum to one exactly"),
        ({"0": Fraction(2 ** 70 - 1, 2 ** 70), "1": Fraction(0)}, "does not sum to one exactly"),
        ({"0": "1/3", "1": "1/2"}, "does not sum to one exactly"),
        ({}, "does not sum to one exactly"),
        ({"0": Fraction(3, 2), "1": Fraction(-1, 2)}, "has a negative mass"),
        ({"0": Fraction(-1, 3), "1": Fraction(1, 3)}, "has a negative mass"),
    ])
    def test_bad_priors_keep_their_messages(self, dist, message):
        with pytest.raises(ModelError) as err:
            Prior({"a": {"0": Fraction(1)}, "b": dist})
        assert str(err.value) == f"prior for 'b' {message}"

    def test_sum_check_agrees_with_fraction_sum(self):
        rng = np.random.default_rng(5)
        seen = {True: 0, False: 0}
        for _ in range(300):
            k = int(rng.integers(1, 5))
            masses = [Fraction(int(rng.integers(0, 8)), int(rng.integers(1, 9)))
                      for _ in range(k - 1)]
            # often complete the masses to one exactly, else leave them off by a little
            rest = 1 - sum(masses, Fraction(0))
            masses.append(rest if rng.random() < 0.5 else rest + Fraction(1, 97))
            if min(masses) < 0:
                continue
            dist = {str(i): p for i, p in enumerate(masses)}
            ok = sum(masses, Fraction(0)) == 1
            seen[ok] += 1
            if ok:
                assert Prior({"a": dist}).masses == {"a": dist}
            else:
                with pytest.raises(ModelError, match="does not sum to one exactly"):
                    Prior({"a": dist})
        assert min(seen.values()) > 20, seen

    def test_stored_masses_are_fractions(self):
        p = Prior({"a": {0: "1/3", "1": Fraction(2, 3)}, "b": {"0": 1, "1": 0}})
        assert p.masses == {"a": {"0": Fraction(1, 3), "1": Fraction(2, 3)},
                            "b": {"0": Fraction(1), "1": Fraction(0)}}
        assert all(type(v) is Fraction for dist in p.masses.values() for v in dist.values())

    def test_sampled_priors_are_exact_and_full_support(self, common_cause_model):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = Prior.sample(common_cause_model.space, rng)
            for a in common_cause_model.agents:
                masses = list(p.masses[a].values())
                assert sum(masses) == 1
                assert all(v > 0 for v in masses)
                assert all(v.denominator <= 64 for v in masses)
