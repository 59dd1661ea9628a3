import tracemalloc
from itertools import product

import numpy as np
import pytest

from infodep import _kernels
from infodep.fieldcore import (
    ConfigSet,
    ConfigSpace,
    Configuration,
    CoordinateMask,
    FieldcoreError,
    FiniteSpace,
    field_subset_witness,
    partition_from_codes,
    partition_from_mask,
    partition_from_observation,
)
from infodep.solvability import solve

from conftest import binary_spaces, context_model, full_mask, random_context


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


def contained(p, mask, ctx):
    """Is the trace of p on ctx contained in the trace of the mask field?"""
    return field_subset_witness(p, mask, ctx) is None


def rand_mask(rng, agents, prob):
    return CoordinateMask(
        frozenset(a for a in agents if rng.random() < prob),
        frozenset(a for a in agents if rng.random() < prob),
    )


class TestSpaces:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(FieldcoreError):
            FiniteSpace("bad", ("0", "0"))

    def test_empty_space_rejected(self):
        with pytest.raises(FieldcoreError):
            FiniteSpace("bad", ())

    def test_size_guard(self):
        # 4**13 = 2**26 configurations: refused before anything is allocated
        agents = tuple(f"A{i}" for i in range(13))
        nature, decisions = binary_spaces(agents)
        with pytest.raises(FieldcoreError, match="exceeds the cap"):
            ConfigSpace(agents, nature, decisions)

    def test_coordinate_keys_must_match_agents(self):
        agents = ("a", "b")
        nature, decisions = binary_spaces(agents)
        del nature["b"]
        with pytest.raises(FieldcoreError):
            ConfigSpace(agents, nature, decisions)

    def test_index_roundtrip(self):
        space, twin = three_agent_space(), three_agent_space()
        for i in range(space.n_configs):
            assert space.config_at(i).index == i
            assert twin.index_of(space.config_at(i)) == i

    def test_config_set_indices_checked(self):
        space = three_agent_space()
        for bad in ([-1], [space.n_configs], [0, 2 * space.n_configs]):
            with pytest.raises(FieldcoreError):
                ConfigSet.from_indices(space, bad)
        ends = ConfigSet.from_indices(space, [0, space.n_configs - 1])
        assert ends.indices.tolist() == [0, space.n_configs - 1]


class TestOmegaIndex:
    @pytest.mark.parametrize("seed", range(6))
    def test_roundtrip_over_every_omega(self, seed):
        rng = np.random.default_rng(500 + seed)
        space = context_model(rng).space
        for om in range(space.n_omega):
            labels = space.omega_labels_at(om)
            assert space.omega_index(labels) == om
            # the configuration index of (omega, u) is omega + n_omega * u
            assert space.config_at(om).nature_part == labels

    def test_missing_agent_rejected(self):
        space = three_agent_space()
        with pytest.raises(FieldcoreError, match="missing nature coordinate for agent 'T'"):
            space.omega_index({"Z": "0", "Y": "1"})
        with pytest.raises(FieldcoreError):
            space.omega_index({"Z": "0", "T": "2", "Y": "1"})

    def test_unknown_agent_rejected(self):
        space = three_agent_space()
        labels = {"Z": "0", "T": "1", "Y": "1"}
        with pytest.raises(FieldcoreError, match=r"unknown agents \['junk'\]"):
            space.omega_index({**labels, "junk": "x"})
        with pytest.raises(FieldcoreError, match=r"nature coordinates name unknown agents"):
            Configuration(space, {**labels, "zz": "9"}, labels)
        with pytest.raises(FieldcoreError, match=r"decision coordinates name unknown agents"):
            Configuration(space, labels, {**labels, "qq": "1"})

    def test_solution_missing_agent_rejected(self, xor_model):
        sol = solve(xor_model, xor_model.canonical_profile)
        with pytest.raises(FieldcoreError, match="missing nature coordinate"):
            sol.solution({"X0": "1"})


class TestCodec:
    """Coordinates are computed from the configuration index."""

    def test_full_space_digits_follow_the_enumeration(self):
        rng = np.random.default_rng(41)
        for _ in range(4):
            space = context_model(rng).space
            # itertools.product varies its last factor fastest
            digits = list(product(*(range(s) for s in reversed(space.sizes))))
            coords = space.mask_coords(full_mask(space))
            got = np.stack([space.coord_values(c) for c in coords], axis=1)
            assert np.array_equal(got, np.array(digits)[:, ::-1])

    def test_index_results_equal_the_full_space_at_the_index(self):
        rng = np.random.default_rng(42)
        label_counts = set()
        for _ in range(8):
            space = context_model(rng).space
            label_counts |= set(space.sizes)
            draw = rng.integers(0, space.n_configs, 20)
            masks = [rand_mask(rng, space.agents, 0.5) for _ in range(3)]
            masks += [full_mask(space), CoordinateMask()]
            for index in (draw, draw.tolist(), [], np.repeat(draw[:3], 3)):
                at = np.asarray(index, dtype=np.int64)
                for c in space.mask_coords(full_mask(space)):
                    assert np.array_equal(space.coord_values(c, index),
                                          space.coord_values(c)[at])
                for mask in masks:
                    codes, n_codes = space.mask_codes(mask, index)
                    full, n_full = space.mask_codes(mask)
                    assert n_codes == n_full and np.array_equal(codes, full[at])
            for i in range(space.n_configs):
                assert space.index_of(space.config_at(i)) == i
        assert label_counts == {1, 2, 3}

    def test_out_of_range_points_rejected(self):
        space = three_agent_space()
        for bad in (-1, space.n_configs):
            with pytest.raises(FieldcoreError, match="out of range"):
                space.config_at(bad)
        for bad in (-1, space.n_omega):
            with pytest.raises(FieldcoreError, match="out of range"):
                space.omega_labels_at(bad)

    def test_no_per_configuration_array_is_allocated(self):
        # 10 binary agents: 2**20 configurations, 8 MiB per int64 array of them
        agents = tuple(f"A{i}" for i in range(10))
        space = ConfigSpace(agents, *binary_spaces(agents))
        index = np.arange(0, space.n_configs, 9973)
        last = space.n_configs - 1
        tracemalloc.start()
        try:
            codes, _ = space.mask_codes(full_mask(space), index)
            assert space.index_of(space.config_at(last)) == last
            labels = space.omega_labels_at(space.n_omega - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert np.array_equal(codes, index) and set(labels.values()) == {"1"}
        assert not any(isinstance(v, np.ndarray) for v in vars(space).values())


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
        p = partition_from_mask(space, full_mask(space))
        assert p.atom_count == space.n_configs

    def test_unknown_agent_rejected(self):
        space = three_agent_space()
        with pytest.raises(FieldcoreError):
            partition_from_mask(space, CoordinateMask({"Q"}, frozenset()))

    def test_atoms_are_canonical_and_nonempty(self):
        space = three_agent_space()
        p = partition_from_mask(space, CoordinateMask({"Z"}, {"Y"}))
        seen = []
        for a in p.atom_index:
            if a not in seen:
                seen.append(int(a))
        assert seen == list(range(p.atom_count))
        assert np.all(np.bincount(p.atom_index, minlength=p.atom_count) > 0)


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
        p = partition_from_observation(space, lambda c: c.index)
        assert p.atom_count == space.n_configs


class TestRefines:
    """Refinement of fields: the field of p lies in the field of mask m
    exactly when m's partition refines p's, which `field_subset_witness`
    decides on the full context."""

    def test_discrete_refines_trivial(self):
        space = three_agent_space()
        full = ConfigSet.full(space)
        disc = partition_from_mask(space, full_mask(space))
        triv = partition_from_mask(space, CoordinateMask())
        assert contained(triv, full_mask(space), full)
        assert not contained(disc, CoordinateMask(), full)

    def test_coarser_mask_is_refined(self):
        space = three_agent_space()
        z = partition_from_mask(space, CoordinateMask(frozenset(), {"Z"}))
        assert contained(z, CoordinateMask(frozenset(), {"Z", "T"}), ConfigSet.full(space))

    def test_incomparable_masks(self):
        space = three_agent_space()
        full = ConfigSet.full(space)
        z = partition_from_mask(space, CoordinateMask(frozenset(), {"Z"}))
        t = partition_from_mask(space, CoordinateMask(frozenset(), {"T"}))
        assert not contained(t, CoordinateMask(frozenset(), {"Z"}), full)
        assert not contained(z, CoordinateMask(frozenset(), {"T"}), full)

    @pytest.mark.parametrize("seed", range(8))
    def test_mask_refinement_iff_mask_containment(self, seed):
        # the field of m2 lies in the field of m1 iff m2's coordinates are among m1's
        rng = np.random.default_rng(seed)
        space = three_agent_space()
        m1, m2 = rand_mask(rng, space.agents, 0.4), rand_mask(rng, space.agents, 0.4)
        p2 = partition_from_mask(space, m2)
        assert contained(p2, m1, ConfigSet.full(space)) == (
            m2.nature <= m1.nature and m2.decision <= m1.decision)

    @pytest.mark.parametrize("seed", range(10))
    def test_partial_order_laws_on_random_partitions(self, seed):
        # field containment is a partial order: a random field p and random
        # mask fields m1, m2 on the (u_a, u_s) square
        rng = np.random.default_rng(100 + seed)
        space = switch_square_space()
        full = ConfigSet.full(space)
        p = partition_from_codes(space, rng.integers(0, 3, space.n_configs))
        m1, m2 = rand_mask(rng, space.agents, 0.5), rand_mask(rng, space.agents, 0.5)
        q1, q2 = partition_from_mask(space, m1), partition_from_mask(space, m2)
        assert contained(q1, m1, full)  # reflexive
        if contained(p, m1, full) and contained(q1, m2, full):
            assert contained(p, m2, full)  # transitive
        if contained(q1, m2, full) and contained(q2, m1, full):
            assert q1 == q2  # antisymmetric up to canonical relabeling


class TestTrace:
    """Trace fields on a context, never built: `field_subset_witness`
    compares them by reading the field's atoms at the context's members."""

    def test_trace_of_discrete_is_discrete(self):
        # on u_Z = 1 the discrete field's trace needs every coordinate but u_Z
        space = three_agent_space()
        p = partition_from_mask(space, full_mask(space))
        ctx = ConfigSet.from_pins(space, decision={"Z": "1"})
        assert contained(p, CoordinateMask(space.agents, {"T", "Y"}), ctx)
        assert not contained(p, CoordinateMask(space.agents, {"Z", "T"}), ctx)
        assert not contained(p, CoordinateMask(space.agents, {"T", "Y"}), ConfigSet.full(space))

    def test_trace_of_switch_field_hides_ua(self):
        space = switch_square_space()

        def obs(c):
            return c.decision_part["a"] if c.decision_part["s"] == "1" else "-"

        p = partition_from_observation(space, obs)
        assert contained(p, CoordinateMask(), ConfigSet.from_pins(space, decision={"s": "0"}))
        assert not contained(p, CoordinateMask(), ConfigSet.full(space))

    def test_trace_tower_law(self):
        # a trace only gets coarser on a smaller context: containment on h
        # holds on every h2 inside h, and a violation on h2 is one on h
        rng = np.random.default_rng(800)
        for _ in range(6):
            m = context_model(rng)
            space = m.space
            h = random_context(rng, space) or ConfigSet.full(space)
            h2 = ConfigSet(space, h.member_mask & (rng.random(space.n_configs) < 0.5))
            if h2.size == 0:
                h2 = ConfigSet.from_indices(space, h.indices[:1])
            for f in m.info.values():
                mask = rand_mask(rng, space.agents, 0.5)
                w, w2 = (field_subset_witness(f.partition, mask, c) for c in (h, h2))
                if w is None:
                    assert w2 is None
                if w2 is not None:
                    c1, c2 = w2
                    assert f.partition.atom_of(c1) != f.partition.atom_of(c2)
                    assert h.member_mask[c1.index] and h.member_mask[c2.index]

    def test_empty_context_rejected(self):
        space = three_agent_space()
        p = partition_from_mask(space, CoordinateMask())
        with pytest.raises(FieldcoreError, match="containment test over an empty context"):
            field_subset_witness(p, CoordinateMask(), ConfigSet.from_indices(space, []))


def representatives_oracle(p):
    """Reference for `Partition.representatives`: the first index of each
    atom, found by walking the space in order."""
    reps = [-1] * p.atom_count
    for i, a in enumerate(p.atom_index.tolist()):
        if reps[a] < 0:
            reps[a] = i
    return reps


class TestRepresentatives:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_domain_loop(self, seed):
        rng = np.random.default_rng(400 + seed)
        m = context_model(rng)
        for f in m.info.values():
            reps = f.partition.representatives()
            assert reps == representatives_oracle(f.partition)
            assert all(type(r) is int for r in reps)


def field_subset_witness_oracle(p, mask, ctx):
    """Reference for `field_subset_witness`: walk the members of ctx in
    order and return the first one whose atom differs from that of the
    first member with the same masked labels."""
    first = {}
    for i in ctx.indices.tolist():
        c = p.space.config_at(i)
        key = tuple(c.nature_part[a] if kind == "n" else c.decision_part[a]
                    for kind, a in p.space.mask_coords(mask))
        j = first.setdefault(key, i)
        if p.atom_index[j] != p.atom_index[i]:
            return p.space.config_at(j), c
    return None


class TestFieldSubsetOn:
    def test_bigger_mask_contains(self):
        space = three_agent_space()
        p = partition_from_mask(space, CoordinateMask(frozenset(), {"Z"}))
        full = ConfigSet.full(space)
        assert contained(p, CoordinateMask({"Y"}, {"Z", "T"}), full)

    def test_switch_field_contained_only_on_inactive_context(self):
        space = switch_square_space()

        def obs(c):
            return c.decision_part["a"] if c.decision_part["s"] == "1" else "-"

        p = partition_from_observation(space, obs)
        no_a = CoordinateMask({"a", "s"}, {"s"})
        h0 = ConfigSet.from_pins(space, decision={"s": "0"})
        h1 = ConfigSet.from_pins(space, decision={"s": "1"})
        assert contained(p, no_a, h0)
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
            assert field_subset_witness(p, mk, full) == field_subset_witness_oracle(p, mk, full)

    @pytest.mark.parametrize("seed", range(6))
    def test_mask_intersection_law(self, seed):
        # containment in two product fields implies containment in their meet
        rng = np.random.default_rng(seed)
        space = three_agent_space()
        full = ConfigSet.full(space)
        m1, m2 = rand_mask(rng, space.agents, 0.6), rand_mask(rng, space.agents, 0.6)
        p = partition_from_mask(space, rand_mask(rng, space.agents, 0.6))
        if contained(p, m1, full) and contained(p, m2, full):
            meet = CoordinateMask(m1.nature & m2.nature, m1.decision & m2.decision)
            assert contained(p, meet, full)

    @pytest.mark.parametrize("seed", range(12))
    def test_witness_matches_member_walk(self, seed):
        rng = np.random.default_rng(600 + seed)
        m = context_model(rng)
        space = m.space
        for f in m.info.values():
            for p in (f.partition, partition_from_codes(
                    space, rng.integers(0, 1 + int(rng.integers(1, 4)), space.n_configs))):
                mask = rand_mask(rng, space.agents, 0.5)
                ctx = random_context(rng, space) or ConfigSet.full(space)
                assert field_subset_witness(p, mask, ctx) == \
                    field_subset_witness_oracle(p, mask, ctx)


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


def scan_profiles_oracle(all_tables, pol_offsets, n_pols, atom_counts,
                         atoms, uvals, n_omega, n_profiles):
    """Profile-by-profile loop: the reference for the chunked scan kernel."""
    for p in range(n_profiles):
        rest = p
        ok = np.ones(atoms.shape[1], dtype=bool)
        for a in range(atoms.shape[0]):
            k = rest % n_pols[a]
            rest //= n_pols[a]
            ok &= all_tables[pol_offsets[a] + k * atom_counts[a] + atoms[a]] == uvals[a]
        if np.any(np.bincount(np.flatnonzero(ok) % n_omega, minlength=n_omega) != 1):
            return p
    return -1


def scan_args(tables, atoms, uvals, n_omega):
    """scan_profiles arguments from per-agent (n_pols, atom_count) tables."""
    n_pols = np.asarray([t.shape[0] for t in tables])
    atom_counts = np.asarray([t.shape[1] for t in tables])
    return (np.concatenate([t.ravel() for t in tables]),
            np.concatenate([[0], np.cumsum(n_pols * atom_counts)[:-1]]),
            n_pols, atom_counts, np.stack(atoms), np.stack(uvals), n_omega,
            int(np.prod(n_pols)))


def decision_digits(sizes, n_omega):
    """uvals of config index omega + n_omega * u, u mixed radix (agent 0 fastest)."""
    u = np.arange(n_omega * int(np.prod(sizes))) // n_omega
    digits = []
    for s in sizes:
        digits.append(u % s)
        u = u // s
    return digits


def self_observing_scan(rng, n_pols, bad_at=None, bad_kind="zero"):
    """Scan inputs where every agent sees a random function g_a of omega and
    its own decision, so a policy solves at omega when its map
    v -> table[g_a(omega), v] has exactly one fixed point.  Every policy has
    one everywhere except agent 0's policy number bad_at, which has none
    ("zero") or one per decision value ("several") at one reachable g value.
    The first failing profile is then bad_at, or none."""
    sizes = rng.integers(2, 4, len(n_pols)).tolist()  # 2- and 3-valued decisions
    n_omega = int(rng.integers(1, 4))
    uvals = decision_digits(sizes, n_omega)
    omega = np.arange(uvals[0].size) % n_omega
    atoms, tables = [], []
    for a, (s, n) in enumerate(zip(sizes, n_pols)):
        n_g = int(rng.integers(1, 4))
        g = rng.integers(0, n_g, n_omega)
        atoms.append(g[omega] * s + uvals[a])
        # v -> c for a random constant c: one fixed point
        table = np.repeat(rng.integers(0, s, (n, n_g)), s, axis=1)
        if a == 0 and bad_at is not None:
            v = np.arange(s)
            table[bad_at].reshape(n_g, s)[rng.choice(g)] = (
                (v + 1) % s if bad_kind == "zero" else v)
        tables.append(table)
    return scan_args(tables, atoms, uvals, n_omega)


class TestScanProfilesKernel:
    # chunk edges: with the default budget a chunk starts at 2**k - 1; the
    # small budgets cap chunks at a few profiles, off the powers of two
    BAD_AT = (0, 1, 2, 6, 7, 8, 14, 15, 16, 17, 62, 63, 64, 65, 254, 255, 256, 257)

    @pytest.mark.parametrize("budget", [None, 3 * 8 * 64])
    @pytest.mark.parametrize("kind", ["zero", "several"])
    @pytest.mark.parametrize("seed", range(4))
    def test_first_failure_at_chunk_edges(self, monkeypatch, budget, kind, seed):
        if budget is not None:
            monkeypatch.setattr(_kernels, "SCAN_BYTES", budget)
        rng = np.random.default_rng(seed)
        for bad_at in self.BAD_AT:
            n_pols = [bad_at + 1 + int(rng.integers(0, 3))] + \
                [int(rng.integers(1, 4)) for _ in range(int(rng.integers(0, 3)))]
            args = self_observing_scan(rng, n_pols, bad_at, kind)
            assert scan_profiles_oracle(*args) == bad_at
            assert _kernels.scan_profiles(*args) == bad_at, (bad_at, n_pols)

    @pytest.mark.parametrize("budget", [None, 5 * 8 * 36])
    @pytest.mark.parametrize("seed", range(4))
    def test_last_profile_and_all_pass(self, monkeypatch, budget, seed):
        if budget is not None:
            monkeypatch.setattr(_kernels, "SCAN_BYTES", budget)
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 300))
        args = self_observing_scan(rng, [n, 1, 1], n - 1, ["zero", "several"][seed % 2])
        assert scan_profiles_oracle(*args) == _kernels.scan_profiles(*args) == n - 1
        args = self_observing_scan(rng, [int(rng.integers(1, 40)) for _ in range(3)])
        assert scan_profiles_oracle(*args) == _kernels.scan_profiles(*args) == -1

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_profile_loop_on_random_tables(self, monkeypatch, seed):
        # random fields and policy tables: the decode of every agent's digit
        # matters, and failures of either kind fall anywhere
        rng = np.random.default_rng(200 + seed)
        if seed % 2:
            monkeypatch.setattr(_kernels, "SCAN_BYTES", int(rng.integers(1, 4000)))
        n_agents = int(rng.integers(1, 4))
        sizes = rng.integers(1, 4, n_agents)
        n_omega = int(rng.integers(1, 4))
        uvals = decision_digits(sizes, n_omega)
        atom_counts = rng.integers(1, 4, n_agents)
        atoms = [rng.integers(0, k, uvals[0].size) for k in atom_counts]
        # mostly the one solving value, so failures are not all at profile 0
        tables = [np.where(rng.random((n, k)) < 0.9, 0, rng.integers(0, s, (n, k)))
                  for n, k, s in zip(rng.integers(1, 12, n_agents), atom_counts, sizes)]
        args = scan_args(tables, atoms, uvals, n_omega)
        assert _kernels.scan_profiles(*args) == scan_profiles_oracle(*args)

    def test_chunk_cap_keeps_the_gather_in_budget(self):
        # the widest temporary of a chunk is one int64 per (profile, config)
        item = np.dtype(np.int64).itemsize
        budget = _kernels.SCAN_BYTES
        for n_configs in [*range(1, 3000), *range(budget // item - 5, budget // item + 5),
                          10 ** 6, 2 ** 40]:
            cap = _kernels.scan_chunk_cap(n_configs)
            assert cap >= 1
            if cap > 1:
                assert cap * n_configs * item <= budget, n_configs
            assert (cap + 1) * n_configs * item > budget, n_configs
