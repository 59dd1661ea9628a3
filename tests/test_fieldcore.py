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
    partition_from_codes,
    partition_from_mask,
    partition_from_observation,
    project,
    refines,
    trace,
)

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

    def test_config_set_indices_checked(self):
        space = three_agent_space()
        for bad in ([-1], [space.n_configs], [0, 2 * space.n_configs]):
            with pytest.raises(FieldcoreError):
                ConfigSet.from_indices(space, bad)
        ends = ConfigSet.from_indices(space, [0, space.n_configs - 1])
        assert ends.indices.tolist() == [0, space.n_configs - 1]


class TestProject:
    def test_decision_selection(self):
        space = three_agent_space()
        c = cfg(space, {"Z": "0", "T": "1", "Y": "0"}, {"Z": "1", "T": "0", "Y": "1"})
        assert project(c, CoordinateMask(frozenset(), {"Z", "T"})) == ("1", "0")

    def test_full_mask_is_identity(self):
        space = three_agent_space()
        c = cfg(space, {"Z": "0", "T": "1", "Y": "0"}, {"Z": "1", "T": "0", "Y": "1"})
        assert project(c, full_mask(space)) == ("0", "1", "0", "1", "0", "1")

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
        p = partition_from_mask(space, full_mask(space))
        assert p.atom_count == space.n_configs

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
        p = partition_from_observation(space, list(range(space.n_configs)))
        assert p.atom_count == space.n_configs


class TestRefines:
    def test_discrete_refines_trivial(self):
        space = three_agent_space()
        disc = partition_from_mask(space, full_mask(space))
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
        assert refines(p1, p2) == (m2.nature <= m1.nature and m2.decision <= m1.decision)

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

    @pytest.mark.parametrize("seed", range(6))
    def test_full_space_trace_refines_like_the_field(self, seed):
        # the domain is the -1 entries, so a full-space trace has the
        # field's own domain and compares with it
        rng = np.random.default_rng(300 + seed)
        space = switch_square_space()
        p, q = (partition_from_codes(space, rng.integers(0, 3, space.n_configs))
                for _ in range(2))
        full = ConfigSet.full(space)
        assert refines(p, trace(q, full)) == refines(p, q)
        assert refines(trace(p, full), q) == refines(p, q)

    def test_domain_is_the_traced_context(self):
        space = three_agent_space()
        p = partition_from_mask(space, CoordinateMask({"Z"}, {"T"}))
        h = ConfigSet.from_pins(space, decision={"Z": "0"})
        t = trace(p, h)
        assert p.is_full_domain and not t.is_full_domain
        assert np.array_equal(np.flatnonzero(t.atom_index >= 0), h.indices)
        with pytest.raises(FieldcoreError):
            refines(t, p)
        with pytest.raises(FieldcoreError):
            trace(t, ConfigSet.from_pins(space, decision={"Z": "1"}))

    def test_trace_of_discrete_is_discrete(self):
        space = three_agent_space()
        p = partition_from_mask(space, full_mask(space))
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


def representatives_oracle(p):
    """Reference for `Partition.representatives`: the first index of each
    atom, found by walking the domain in order."""
    reps = [-1] * p.atom_count
    for i in np.flatnonzero(p.atom_index >= 0):
        a = int(p.atom_index[i])
        if reps[a] < 0:
            reps[a] = int(i)
    return reps


class TestRepresentatives:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_domain_loop(self, seed):
        rng = np.random.default_rng(400 + seed)
        m = context_model(rng)
        for f in m.info.values():
            p = f.partition
            ctx = random_context(rng, m.space) or ConfigSet.full(m.space)
            for part in (p, trace(p, ctx)):
                reps = part.representatives()
                assert reps == representatives_oracle(part)
                assert all(type(r) is int for r in reps)


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
