from itertools import product

import numpy as np
import pytest

from infodep import _kernels
from infodep.fieldcore import (
    ConfigSet,
    ConfigSpace,
    Configuration,
    CoordinateMask,
    EmptyContextError,
    FieldcoreError,
    FiniteSpace,
    field_subset_on,
    field_subset_witness,
    partition_from_mask,
    partition_from_observation,
    project,
    refines,
    trace,
)

from conftest import binary_spaces


def three_agent_space():
    agents = ("Z", "T", "Y")
    nature, decisions = binary_spaces(agents)
    return ConfigSpace(agents, nature, decisions)


def switch_square_space():
    # two agents, trivial nature: the configuration space is the (u_a, u_s) square
    agents = ("a", "s")
    nature = {x: FiniteSpace(f"omega[{x}]", ("*",)) for x in agents}
    decisions = {x: FiniteSpace.binary(f"u[{x}]") for x in agents}
    return ConfigSpace(agents, nature, decisions)


def cfg(space, omega, u):
    return Configuration(space, omega, u)


class TestSpaces:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(FieldcoreError):
            FiniteSpace("bad", ("0", "0"))

    def test_empty_space_rejected(self):
        with pytest.raises(FieldcoreError):
            FiniteSpace("bad", ())

    def test_size_guard(self):
        agents = tuple(f"A{i}" for i in range(4))
        nature, decisions = binary_spaces(agents)
        with pytest.raises(FieldcoreError):
            ConfigSpace(agents, nature, decisions, max_configs=100)

    def test_coordinate_keys_must_match_agents(self):
        agents = ("a", "b")
        nature, decisions = binary_spaces(agents)
        del nature["b"]
        with pytest.raises(FieldcoreError):
            ConfigSpace(agents, nature, decisions)

    def test_index_roundtrip(self):
        space = three_agent_space()
        for i in range(space.n_configs):
            assert space.config_at(i).index == i


class TestProject:
    def test_decision_selection(self):
        space = three_agent_space()
        c = cfg(space, {"Z": "0", "T": "1", "Y": "0"}, {"Z": "1", "T": "0", "Y": "1"})
        assert project(c, CoordinateMask(frozenset(), {"Z", "T"})) == ("1", "0")

    def test_full_mask_is_identity(self):
        space = three_agent_space()
        c = cfg(space, {"Z": "0", "T": "1", "Y": "0"}, {"Z": "1", "T": "0", "Y": "1"})
        assert project(c, space.full_mask()) == ("0", "1", "0", "1", "0", "1")

    def test_nature_selection(self):
        space = three_agent_space()
        c = cfg(space, {"Z": "0", "T": "1", "Y": "0"}, {"Z": "1", "T": "0", "Y": "1"})
        assert project(c, CoordinateMask({"T"}, frozenset())) == ("1",)

    def test_unknown_agent_rejected(self):
        space = three_agent_space()
        c = space.config_at(0)
        with pytest.raises(FieldcoreError):
            project(c, CoordinateMask({"Q"}, frozenset()))


class TestPartitionFromMask:
    def test_common_cause_y_field_has_8_atoms(self):
        space = three_agent_space()
        p = partition_from_mask(space, CoordinateMask({"Y"}, {"Z", "T"}))
        assert p.atom_count == 8

    def test_empty_mask_is_trivial(self):
        space = three_agent_space()
        p = partition_from_mask(space, CoordinateMask())
        assert p.atom_count == 1

    def test_full_mask_is_discrete(self):
        space = three_agent_space()
        p = partition_from_mask(space, space.full_mask())
        assert p.atom_count == space.n_configs

    def test_atoms_are_canonical_and_nonempty(self):
        space = three_agent_space()
        p = partition_from_mask(space, CoordinateMask({"Z"}, {"Y"}))
        seen = []
        for a in p.atom_index:
            if a not in seen:
                seen.append(int(a))
        assert seen == list(range(p.atom_count))
        assert all(p.atom_members(a).size > 0 for a in range(p.atom_count))


class TestPartitionFromObservation:
    def test_constant_observation(self):
        space = three_agent_space()
        p = partition_from_observation(space, lambda c: "x")
        assert p.atom_count == 1

    def test_switch_observation_three_atoms(self):
        # b sees u_a only where u_s = 1: atoms {u_s=0}, {u_s=1,u_a=0}, {u_s=1,u_a=1}
        space = switch_square_space()

        def obs(c):
            return c.decision_part["a"] if c.decision_part["s"] == "1" else "-"

        p = partition_from_observation(space, obs)
        assert p.atom_count == 3
        groups = {}
        for ua, us in product("01", "01"):
            c = cfg(space, {"a": "*", "s": "*"}, {"a": ua, "s": us})
            groups.setdefault(p.atom_of(c), set()).add((ua, us))
        assert set(map(frozenset, groups.values())) == {
            frozenset({("0", "0"), ("1", "0")}),
            frozenset({("0", "1")}),
            frozenset({("1", "1")}),
        }

    def test_identity_observation_is_discrete(self):
        space = three_agent_space()
        p = partition_from_observation(space, list(range(space.n_configs)))
        assert p.atom_count == space.n_configs


class TestRefines:
    def test_discrete_refines_trivial(self):
        space = three_agent_space()
        disc = partition_from_mask(space, space.full_mask())
        triv = partition_from_mask(space, CoordinateMask())
        assert refines(disc, triv)
        assert not refines(triv, disc)

    def test_coarser_mask_is_refined(self):
        space = three_agent_space()
        zt = partition_from_mask(space, CoordinateMask(frozenset(), {"Z", "T"}))
        z = partition_from_mask(space, CoordinateMask(frozenset(), {"Z"}))
        assert refines(zt, z)

    def test_incomparable_masks(self):
        space = three_agent_space()
        z = partition_from_mask(space, CoordinateMask(frozenset(), {"Z"}))
        t = partition_from_mask(space, CoordinateMask(frozenset(), {"T"}))
        assert not refines(z, t)
        assert not refines(t, z)

    @pytest.mark.parametrize("seed", range(8))
    def test_mask_refinement_iff_mask_containment(self, seed):
        rng = np.random.default_rng(seed)
        space = three_agent_space()
        agents = list(space.agents)

        def rand_mask():
            return CoordinateMask(
                frozenset(a for a in agents if rng.random() < 0.4),
                frozenset(a for a in agents if rng.random() < 0.4),
            )

        m1, m2 = rand_mask(), rand_mask()
        p1, p2 = partition_from_mask(space, m1), partition_from_mask(space, m2)
        assert refines(p1, p2) == m2.issubset(m1)

    @pytest.mark.parametrize("seed", range(10))
    def test_partial_order_laws_on_random_partitions(self, seed):
        rng = np.random.default_rng(100 + seed)
        space = switch_square_space()
        parts = [
            partition_from_observation(
                space, [int(x) for x in rng.integers(0, 3, space.n_configs)]
            )
            for _ in range(3)
        ]
        p, q, r = parts
        assert refines(p, p)  # reflexive
        if refines(p, q) and refines(q, r):
            assert refines(p, r)  # transitive
        if refines(p, q) and refines(q, p):
            assert p == q  # antisymmetric up to canonical relabeling


class TestTrace:
    def test_trace_on_full_space_is_identity(self):
        space = three_agent_space()
        p = partition_from_mask(space, CoordinateMask({"Z"}, {"T"}))
        assert trace(p, ConfigSet.full(space)) == p

    def test_trace_of_discrete_is_discrete(self):
        space = three_agent_space()
        p = partition_from_mask(space, space.full_mask())
        ctx = ConfigSet.from_pins(space, decision={"Z": "1"})
        assert trace(p, ctx).atom_count == ctx.size

    def test_trace_of_switch_field_hides_ua(self):
        space = switch_square_space()

        def obs(c):
            return c.decision_part["a"] if c.decision_part["s"] == "1" else "-"

        p = partition_from_observation(space, obs)
        ctx = ConfigSet.from_pins(space, decision={"s": "0"})
        assert trace(p, ctx).atom_count == 1

    def test_trace_tower_law(self):
        space = three_agent_space()
        p = partition_from_mask(space, CoordinateMask({"Z"}, {"T", "Y"}))
        h = ConfigSet.from_pins(space, decision={"Z": "0"})
        h2 = h.intersection(ConfigSet.from_pins(space, decision={"T": "1"}))
        assert trace(trace(p, h), h2) == trace(p, h2)

    def test_empty_context_rejected(self):
        space = three_agent_space()
        p = partition_from_mask(space, CoordinateMask())
        with pytest.raises(EmptyContextError):
            trace(p, ConfigSet.from_indices(space, []))


class TestFieldSubsetOn:
    def test_bigger_mask_contains(self):
        space = three_agent_space()
        p = partition_from_mask(space, CoordinateMask(frozenset(), {"Z"}))
        full = ConfigSet.full(space)
        assert field_subset_on(p, CoordinateMask({"Y"}, {"Z", "T"}), full)

    def test_switch_field_contained_only_on_inactive_context(self):
        space = switch_square_space()

        def obs(c):
            return c.decision_part["a"] if c.decision_part["s"] == "1" else "-"

        p = partition_from_observation(space, obs)
        no_a = CoordinateMask({"a", "s"}, {"s"})
        h0 = ConfigSet.from_pins(space, decision={"s": "0"})
        h1 = ConfigSet.from_pins(space, decision={"s": "1"})
        assert field_subset_on(p, no_a, h0)
        assert not field_subset_on(p, no_a, h1)
        w = field_subset_witness(p, no_a, h1)
        assert w is not None
        c1, c2 = w
        assert c1.decision_part["s"] == c2.decision_part["s"] == "1"
        assert c1.decision_part["a"] != c2.decision_part["a"]

    def test_full_context_equals_refinement(self):
        space = three_agent_space()
        full = ConfigSet.full(space)
        masks = [
            CoordinateMask(frozenset(), {"Z"}),
            CoordinateMask({"T"}, {"Y"}),
            CoordinateMask({"Z", "T", "Y"}, frozenset()),
        ]
        p = partition_from_mask(space, CoordinateMask({"Z"}, {"Y"}))
        for mk in masks:
            assert field_subset_on(p, mk, full) == refines(partition_from_mask(space, mk), p)

    @pytest.mark.parametrize("seed", range(6))
    def test_mask_intersection_law(self, seed):
        # containment in two product fields implies containment in their meet
        rng = np.random.default_rng(seed)
        space = three_agent_space()
        agents = list(space.agents)
        full = ConfigSet.full(space)

        def rand_mask():
            return CoordinateMask(
                frozenset(a for a in agents if rng.random() < 0.6),
                frozenset(a for a in agents if rng.random() < 0.6),
            )

        m1, m2 = rand_mask(), rand_mask()
        p = partition_from_mask(space, rand_mask())
        if field_subset_on(p, m1, full) and field_subset_on(p, m2, full):
            assert field_subset_on(p, m1.intersection(m2), full)


def group_constant_oracle(codes, values, n_codes):
    """First-occurrence loop: the reference for the NumPy group-constancy kernel."""
    first_val = [None] * n_codes
    first_pos = [-1] * n_codes
    for i, (c, v) in enumerate(zip(codes.tolist(), values.tolist())):
        if first_pos[c] < 0:
            first_pos[c], first_val[c] = i, v
        elif first_val[c] != v:
            return False, first_pos[c], i
    return True, -1, -1


class TestGroupConstantKernel:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_first_occurrence_loop(self, seed):
        rng = np.random.default_rng(seed)
        n_codes = int(rng.integers(1, 50))
        n = int(rng.integers(n_codes + 1, 400))  # some code repeats
        codes = rng.integers(0, n_codes, n)
        values = rng.integers(0, 5, n_codes)[codes]
        assert _kernels.group_constant(codes, values, n_codes) == (True, -1, -1)
        assert group_constant_oracle(codes, values, n_codes) == (True, -1, -1)

        _, first = np.unique(codes, return_index=True)
        repeats = np.setdiff1d(np.arange(n), first)
        broken = values.copy()
        broken[rng.choice(repeats)] += 1  # a guaranteed violation
        extra = rng.choice(n, size=int(rng.integers(0, 4)), replace=False)
        broken[extra] += rng.integers(1, 3, extra.size)
        expected = group_constant_oracle(codes, broken, n_codes)
        assert not expected[0]
        assert _kernels.group_constant(codes, broken, n_codes) == expected
