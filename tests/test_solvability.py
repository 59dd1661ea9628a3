from math import prod

import numpy as np
import pytest

from infodep import _kernels, solvability
from infodep.fieldcore import (
    ConfigSet,
    ConfigSpace,
    Configuration,
    CoordinateMask,
    FieldcoreError,
    FiniteSpace,
)
from infodep.model import Dag, InformationField, ModelMeta, Prior, WModel, dag_to_idm
from infodep.precedence import (
    SeparationCertificate,
    Splitting,
    closure as topo_closure,
    precedes,
    topologically_separated,
)
from infodep.solvability import (
    CausalityCheck,
    CausalOrdering,
    DependenceCheck,
    FactorizationCertificate,
    FactorizationReport,
    InvalidCertificateError,
    Policy,
    PolicyProfile,
    UnsolvableProfileError,
    check_causal_ordering,
    enumerate_policies,
    find_causal_ordering,
    is_model_solvable,
    policy_count,
    sample_policies,
    sample_profiles,
    solve,
    verify_factorization,
)
from infodep.dsep import random_dag
from infodep.probability import cond_independent, pushforward

from conftest import (
    binary_spaces,
    context_model,
    fixed_decisions,
    mutual_observation_model,
    random_context,
    random_dag_model,
    random_disjoint_sets,
    random_mask_model,
    topological_order,
)


def sequential_decisions(m, g, profile, omega):
    """Independent oracle: evaluate a DAG model's policies in topological order."""
    dec = {a: m.decisions[a].elements[0] for a in m.agents}  # placeholders
    for a in topological_order(g):
        atom = m.info[a].partition.atom_of(Configuration(m.space, omega, dec))
        dec[a] = m.decisions[a].elements[int(profile[a].table[atom])]
    return dec


def exhaustive_solve_oracle(m):
    """Reference for the exhaustive scan: `solve` on every profile in mixed-radix
    order, agent 0 the fastest digit; (kind, profiles_checked, witness)."""
    enums = [enumerate_policies(m, a) for a in m.agents]
    total = prod(len(e) for e in enums)
    for p in range(total):
        rest, pols = p, {}
        for a, e in zip(m.agents, enums):
            rest, k = divmod(rest, len(e))
            pols[a] = e.policy_at(k)
        profile = PolicyProfile(pols)
        if not solve(m, profile).solvable:
            return "UNSOLVABLE", p + 1, profile
    return "SOLVABLE_PROVED", total, None


def find_causal_ordering_oracle(m, max_agents=5, max_configs=4096):
    """Reference for `find_causal_ordering`: recursive splitting of explicit
    configuration cells, one np.unique grouping per cell, memoized on the
    cell's members; the first feasible agent in canonical order goes next."""
    n = len(m.agents)
    if n > max_agents:
        raise FieldcoreError(f"ordering search capped at {max_agents} agents")
    space = m.space
    if space.n_configs > max_configs:
        raise FieldcoreError(f"ordering search capped at {max_configs} configurations")
    atoms_of = {a: m.info[a].partition.atom_index for a in m.agents}
    all_nature = frozenset(m.agents)
    codes_cache = {}

    def codes_for(used):
        if used not in codes_cache:
            codes_cache[used], _ = space.mask_codes(CoordinateMask(all_nature, used))
        return codes_cache[used]

    memo = {}

    def search(members, used):
        if len(used) == n:
            return ()
        key = (used, members.tobytes())
        if key in memo:
            return memo[key]
        codes = codes_for(used)[members]
        plan = []
        feasible = True
        _, inverse = np.unique(codes, return_inverse=True)
        for g in range(int(inverse.max()) + 1 if inverse.size else 0):
            cell = members[inverse == g]
            chosen = None
            for b in m.agents:
                if b in used:
                    continue
                vals = atoms_of[b][cell]
                if np.all(vals == vals[0]):
                    sub = search(cell, used | {b})
                    if sub is not None:
                        chosen = (b, cell, sub)
                        break
            if chosen is None:
                feasible = False
                break
            plan.append(chosen)
        out = tuple(plan) if feasible else None
        memo[key] = out
        return out

    root = search(np.arange(space.n_configs, dtype=np.int64), frozenset())
    if root is None:
        return None
    orders = np.full((space.n_configs, n), -1, dtype=np.int16)

    def fill(plan, depth):
        for b, cell, sub in plan:
            orders[cell, depth] = m.agents.index(b)
            fill(sub, depth + 1)

    fill(root, 0)
    return CausalOrdering(tuple(m.agents), orders)


def check_causal_ordering_oracle(m, phi):
    """Reference for `check_causal_ordering`: prefixes as unique rows of the
    ordering array, in row order."""
    space = m.space
    all_nature = frozenset(m.agents)
    for k in range(1, len(m.agents) + 1):
        prefixes, inverse = np.unique(phi.orders[:, :k], axis=0, return_inverse=True)
        inverse = inverse.ravel()
        for row in range(prefixes.shape[0]):
            kappa = tuple(m.agents[int(i)] for i in prefixes[row])
            labeled = np.where(inverse == row, m.info[kappa[-1]].partition.atom_index, -1)
            codes, n_codes = space.mask_codes(CoordinateMask(all_nature, frozenset(kappa[:-1])))
            ok, i, j = _kernels.group_constant(codes, labeled, n_codes)
            if not ok:
                return CausalityCheck(
                    False, kappa, (space.config_at(int(i)), space.config_at(int(j)))
                )
    return CausalityCheck(True)


def verify_factorization_oracle(m, profile, ctx, cert, y, z, w):
    """Reference for `verify_factorization`: keys and values as matrix rows,
    factorized with np.unique(axis=0), and an inline constancy test.  W
    includes the decisions ctx fixes (`fixed_decisions`)."""
    y, z = frozenset(y), frozenset(z)
    w = frozenset(w) | fixed_decisions(m, y, z, ctx)
    if cert.splitting.w_y | cert.splitting.w_z != w:
        raise InvalidCertificateError("splitting does not partition W")
    rel = precedes(m, w, ctx)
    cl_y = topo_closure(m, y | cert.splitting.w_y, w, ctx, relation=rel)
    cl_z = topo_closure(m, z | cert.splitting.w_z, w, ctx, relation=rel)
    if cl_y != cert.closure_y or cl_z != cert.closure_z:
        raise InvalidCertificateError("certificate closures are not the true closures")
    if cl_y & cl_z:
        raise InvalidCertificateError("certificate closures overlap")

    sol = solve(m, profile)
    if not sol.solvable:
        raise UnsolvableProfileError("factorization requires a solvable profile")

    space = m.space
    residual = frozenset(m.agents) - cl_y - cl_z
    parts = FactorizationCertificate(cl_y, cl_z, residual)

    ctx = ctx if ctx is not None else ConfigSet.full(space)
    omega = np.arange(space.n_omega, dtype=np.int64)
    in_domain = ctx.member_mask[sol.config_index]
    omega = omega[in_domain]
    if omega.shape[0] == 0:
        return FactorizationReport(parts, (), vacuous=True, domain_size=0)

    sol_cfg = sol.config_index[in_domain]

    def u_of(agents):
        cols = [space.coord_values(("u", a), sol_cfg) for a in space.agents if a in agents]
        return np.stack(cols, axis=1) if cols else np.zeros((omega.shape[0], 0), np.int64)

    def om_of(agents):
        # a configuration index below n_omega has u = 0, so it reads as omega
        cols = [space.coord_values(("n", a), omega) for a in space.agents if a in agents]
        return np.stack(cols, axis=1) if cols else np.zeros((omega.shape[0], 0), np.int64)

    def witness(i, j):
        return (space.omega_labels_at(int(omega[i])), space.omega_labels_at(int(omega[j])))

    u_w = u_of(w)
    plan = (
        ("y-block", cl_y - w, np.concatenate([om_of(cl_y), u_w], axis=1)),
        ("z-block", cl_z - w, np.concatenate([om_of(cl_z), u_w], axis=1)),
        ("residual", residual,
         np.concatenate([om_of(residual), u_of(cl_y | cl_z)], axis=1)),
    )
    checks = []
    for name, block, keys in plan:
        vals = u_of(block)
        _, inverse, first = _rows_factorized(keys)
        bad = np.flatnonzero((vals[first[inverse]] != vals).any(axis=1))
        if bad.size:
            j = int(bad[0])
            checks.append(DependenceCheck(name, False, witness(first[inverse[j]], j)))
        else:
            checks.append(DependenceCheck(name, True))

    # Rectangle: split each u_W group's nature points into block and rest
    # codes.  The group is block x rest exactly when every block code meets
    # every rest code of its group; y-vs-rest and z-vs-rest rectangles
    # together give the three-way product with the residual.
    _, w_code, _ = _rows_factorized(u_w)
    rect = DependenceCheck("rectangle", True)
    for block in (cl_y, cl_z):
        _, inside, first_in = _rows_factorized(
            np.column_stack([w_code, om_of(block)]))
        _, outside, first_out = _rows_factorized(
            np.column_stack([w_code, om_of(frozenset(m.agents) - block)]))
        rest_per_group = np.bincount(w_code[first_out])
        short = np.flatnonzero(np.bincount(inside) < rest_per_group[w_code[first_in]])
        if short.size:
            a = int(short[0])
            group_rest = np.unique(outside[w_code == w_code[first_in[a]]])
            r = int(group_rest[~np.isin(group_rest, outside[inside == a])][0])
            # a's block noises with r's other noises reach no solution in the group
            rect = DependenceCheck("rectangle", False, witness(first_in[a], first_out[r]))
            break
    checks.append(rect)
    return FactorizationReport(parts, tuple(checks), vacuous=False,
                               domain_size=int(omega.shape[0]))


def _rows_factorized(rows):
    """Factorize matrix rows: (unique, inverse, index-of-first-occurrence)."""
    if rows.shape[1] == 0:
        n = rows.shape[0]
        return rows[:1], np.zeros(n, dtype=np.int64), np.zeros(1, dtype=np.int64)
    uniq, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    return uniq, inverse.ravel(), first


def is_rectangle_counterexample(m, profile, ctx, w, blocks, pair):
    """Both nature points reach ctx with the same u_W, and for some block the
    point with the first one's block noises and the second one's other noises
    does not reach ctx with that u_W."""
    sol = solve(m, profile)
    ctx = ctx if ctx is not None else ConfigSet.full(m.space)

    def reached(omega):
        cfg = sol.solution(omega)
        return bool(ctx.member_mask[cfg.index]), tuple(cfg.decision_part[a] for a in sorted(w))

    (in_1, w_1), (in_2, w_2) = reached(pair[0]), reached(pair[1])
    if not (in_1 and in_2 and w_1 == w_2):
        return False
    for block in blocks:
        swapped = {a: pair[0 if a in block else 1][a] for a in m.agents}
        if reached(swapped) != (True, w_1):
            return True
    return False


def tabulated_profile(m, rules):
    """Profile playing rules[a](noises, decisions) on 0/1 ints, per field atom.

    Each rule is evaluated at its atom's representative configuration, so it
    must read only what the agent's field sees.
    """
    policies = {}
    for a in m.agents:
        table = []
        for rep in m.info[a].partition.representatives():
            cfg = m.space.config_at(rep)
            om = {b: int(v) for b, v in cfg.nature_part.items()}
            u = {b: int(v) for b, v in cfg.decision_part.items()}
            table.append(int(rules[a](om, u)))
        policies[a] = Policy(a, np.array(table))
    return PolicyProfile(policies)


def xor_omega(bits):
    """Nature point of the xor model from a string of five labels X0..X4."""
    return {f"X{i}": b for i, b in enumerate(bits)}


def u_mask(agents):
    return CoordinateMask(frozenset(), frozenset(agents))


def ordering_kind(phi):
    if phi is None:
        return None
    return "constant" if np.all(phi.orders == phi.orders[0]) else "non-constant"




# A solvable xor profile on which the fixed splitting {X0}/{X1,X2} fails:
# at the nature points 00000 and 10000 (X0..X4) u_X0 = 1, but (u_X1, u_X2) is
# (0,0), then (1,1).
HAND_BUILT_XOR_RULES = {
    "X0": lambda om, u: (u["X1"] == om["X0"]) if u["X1"] == u["X2"] else 1,
    "X1": lambda om, u: u["X0"] & u["X2"],
    "X2": lambda om, u: u["X1"] if u["X0"] == 1 else 1,
    "X3": lambda om, u: om["X3"],
    "X4": lambda om, u: om["X4"],
}

# The first solvable profile of the seed-55 stream of sample_profiles on the
# xor model that fails the fixed-split form for both valid splittings.
SEED55_BOTH_SPLITS_FAIL_TABLES = {
    "X0": [1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
    "X1": [1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1],
    "X2": [1, 0, 0, 0, 0, 0, 1, 0],
    "X3": [0, 0],
    "X4": [1, 1],
}


class TestPolicyEnumeration:
    def test_common_cause_y_has_256(self, common_cause_model):
        assert policy_count(common_cause_model, "Y") == 256
        assert len(enumerate_policies(common_cause_model, "Y")) == 256

    def test_xor_x2_has_256(self, xor_model):
        assert policy_count(xor_model, "X2") == 256

    def test_nature_only_one_atom(self):
        m = mutual_observation_model()
        # each field sees one binary decision: two atoms, four policies
        assert policy_count(m, "a") == 4
        pols = list(enumerate_policies(m, "a"))
        assert len(pols) == 4
        assert len({p.table.tobytes() for p in pols}) == 4

    def test_singleton_noise_nature_only_field(self):
        m = mutual_observation_model()
        # swap a's field for a nature-only one: single atom, |U_a| policies
        from infodep.fieldcore import CoordinateMask
        from infodep.model import InformationField, WModel

        info = dict(m.info)
        info["a"] = InformationField.from_mask(
            m.space, "a", CoordinateMask(frozenset({"a"}), frozenset())
        )
        m2 = WModel(m.space, info, prior=m.prior)
        assert policy_count(m2, "a") == m.decisions["a"].size

    def test_cap_exceeded(self):
        # a sees its own noise and four binary decisions: 2^(2 * 2^4) policies
        agents = ("a", "b", "c", "d", "e")
        space = ConfigSpace(agents, *binary_spaces(agents))
        info = {x: InformationField.from_mask(space, x, CoordinateMask({x}, frozenset()))
                for x in agents}
        info["a"] = InformationField.from_mask(space, "a", CoordinateMask({"a"}, agents[1:]))
        m = WModel(space, info)
        assert policy_count(m, "a") == 2 ** 32 > solvability.POLICY_ENUM_CAP
        with pytest.raises(FieldcoreError, match="exceeds the cap"):
            enumerate_policies(m, "a")


class TestSamplePolicies:
    def test_deterministic_under_seed(self, xor_model):
        a = sample_policies(xor_model, "X0", 5, seed=42)
        b = sample_policies(xor_model, "X0", 5, seed=42)
        assert a == b
        c = sample_policies(xor_model, "X0", 5, seed=43)
        assert a != c

    def test_zero_draws(self, xor_model):
        assert sample_policies(xor_model, "X0", 0, seed=1) == []

    def test_uniform_within_5_sigma(self, common_cause_model):
        n = 10_000
        pols = sample_policies(common_cause_model, "Z", n, seed=7)
        tables = np.stack([p.table for p in pols])
        # per atom: frequency of decision "1" within 5 sigma of n/2
        ones = tables.sum(axis=0)
        sigma = np.sqrt(n * 0.25)
        assert np.all(np.abs(ones - n / 2) <= 5 * sigma)


class TestSolve:
    def test_xor_canonical_is_solvable_unique(self, xor_model):
        sol = solve(xor_model, xor_model.canonical_profile)
        assert sol.solvable
        assert set(sol.counts.tolist()) == {1}
        # spot-check one nature point against the defining equations
        omega = {"X0": "1", "X1": "0", "X2": "0", "X3": "0", "X4": "1"}
        got = sol.solution(omega).decision_part
        x3, x4 = 0, 1
        for x0 in (0, 1):
            for x1 in (0, 1):
                for x2 in (0, 1):
                    ok = (
                        x0 == (x1 & (1 - x2)) ^ 1 ^ x3
                        and x1 == (x2 & (1 - x0)) ^ 0 ^ x4
                        and x2 == (x0 & (1 - x1)) ^ 0
                    )
                    if ok:
                        assert got == {"X0": str(x0), "X1": str(x1), "X2": str(x2),
                                       "X3": "0", "X4": "1"}

    def test_mutual_observation_copy_policies_not_solvable(self):
        m = mutual_observation_model()
        # identity tables: each agent repeats what it sees
        prof = None
        for pa in enumerate_policies(m, "a"):
            for pb in enumerate_policies(m, "b"):
                if list(pa.table) == [0, 1] and list(pb.table) == [0, 1]:
                    from infodep.solvability import PolicyProfile

                    prof = PolicyProfile({"a": pa, "b": pb})
        sol = solve(m, prof)
        assert not sol.solvable
        assert sol.counts.tolist() == [2]  # both fixed points at the one nature point

    @pytest.mark.parametrize("seed", range(5))
    def test_dag_models_match_sequential_oracle(self, seed):
        rng = np.random.default_rng(500 + seed)
        m, g = random_dag_model(rng, n=5, edge_prob=0.5)
        for profile in sample_profiles(m, 5, rng):
            sol = solve(m, profile)
            assert sol.solvable
            for om in range(m.space.n_omega):
                omega = m.space.omega_labels_at(om)
                assert sol.solution(omega).decision_part == \
                    sequential_decisions(m, g, profile, omega)

    def test_permutation_invariance(self, xor_model):
        # relabeling agents conjugates the solution map
        from infodep.model import ScmSpec, scm_to_idm
        from conftest import binary_spaces

        perm_order = ("X4", "X3", "X2", "X1", "X0")
        base = xor_model

        def b(s):
            return int(s)

        spec = ScmSpec(
            parents={
                "X0": ("X1", "X2", "X3"), "X1": ("X0", "X2", "X4"),
                "X2": ("X0", "X1"), "X3": (), "X4": (),
            },
            assignments={
                "X0": lambda w, u: str((b(u["X1"]) & (1 - b(u["X2"]))) ^ b(w) ^ b(u["X3"])),
                "X1": lambda w, u: str((b(u["X2"]) & (1 - b(u["X0"]))) ^ b(w) ^ b(u["X4"])),
                "X2": lambda w, u: str((b(u["X0"]) & (1 - b(u["X1"]))) ^ b(w)),
                "X3": lambda w, u: w,
                "X4": lambda w, u: w,
            },
        )
        perm = scm_to_idm(spec, *binary_spaces(perm_order), agent_order=perm_order)
        sol_base = solve(base, base.canonical_profile)
        sol_perm = solve(perm, perm.canonical_profile)
        assert sol_perm.solvable
        for om in range(base.space.n_omega):
            omega = base.space.omega_labels_at(om)
            assert sol_base.solution(omega).decision_part == \
                sol_perm.solution(omega).decision_part


class TestIsModelSolvable:
    def test_single_agent_proved(self):
        rng = np.random.default_rng(0)
        from conftest import random_mask_model

        m = random_mask_model(rng, n_agents=1)
        v = is_model_solvable(m)
        assert v.kind == "SOLVABLE_PROVED" and v.exhaustive

    def test_mutual_observation_unsolvable_with_witness(self):
        m = mutual_observation_model()
        v = is_model_solvable(m)
        assert v.kind == "UNSOLVABLE" and v.exhaustive
        assert not solve(m, v.witness).solvable

    def test_xor_sampled_unknown(self, xor_model):
        # 65,536 policies for X0 and for X1: far over the budget, so the
        # verdict is sampled.  Random xor profiles are overwhelmingly
        # unsolvable, so either verdict other than a (impossible) proof is
        # acceptable.
        assert policy_count(xor_model, "X0") > solvability.SOLVABILITY_BUDGET
        v = is_model_solvable(xor_model)
        assert not v.exhaustive
        assert v.kind in ("UNKNOWN", "UNSOLVABLE")

    def test_exhaustive_scan_matches_solve_on_every_profile(self):
        outcomes = set()
        for seed in range(40):
            rng = np.random.default_rng(900 + seed)
            m = random_mask_model(rng, n_agents=int(rng.integers(2, 4)),
                                  self_observing=seed % 2 == 1)
            if prod(policy_count(m, a) for a in m.agents) > 1024:
                continue
            v = is_model_solvable(m)
            assert (v.kind, v.profiles_checked, v.witness) == exhaustive_solve_oracle(m), seed
            if v.witness is None:
                outcomes.add("proved")
            else:
                counts = solve(m, v.witness).counts
                outcomes.add("no solution" if np.any(counts == 0) else "several solutions")
        # a scan that only rejects several solutions (or only none) must not pass
        assert outcomes == {"proved", "no solution", "several solutions"}

    @pytest.mark.parametrize("seed", range(4))
    def test_causal_implies_solvable_on_dags(self, seed):
        rng = np.random.default_rng(700 + seed)
        m, g = random_dag_model(rng, n=3, edge_prob=0.5)
        assert find_causal_ordering(m) is not None
        # at most 4 * 16 * 256 = 16,384 binary profiles: within the budget
        v = is_model_solvable(m)
        assert v.kind == "SOLVABLE_PROVED"


class TestCausalOrdering:
    def test_constant_topological_order_is_causal(self, common_cause_model):
        phi = CausalOrdering.constant(common_cause_model, ("Z", "T", "Y"))
        assert check_causal_ordering(common_cause_model, phi).ok

    def test_anti_topological_order_fails_with_prefix(self, common_cause_model):
        phi = CausalOrdering.constant(common_cause_model, ("Y", "Z", "T"))
        res = check_causal_ordering(common_cause_model, phi)
        assert not res.ok
        assert res.violating_prefix == ("Y",)
        c1, c2 = res.witness
        assert c1.nature_part["Y"] == c2.nature_part["Y"]

    def test_xor_constant_orders_all_fail(self, xor_model):
        from itertools import permutations

        for order in list(permutations(xor_model.agents))[:12]:
            assert not check_causal_ordering(
                xor_model, CausalOrdering.constant(xor_model, order)
            ).ok

    def test_find_on_dag_model(self, kuh_model):
        phi = find_causal_ordering(kuh_model)
        assert phi is not None
        assert check_causal_ordering(kuh_model, phi).ok

    def test_xor_search_exhausts(self, xor_model):
        assert find_causal_ordering(xor_model) is None

    def test_mutual_observation_search_exhausts(self):
        assert find_causal_ordering(mutual_observation_model()) is None

    def test_nonconstant_ordering_from_search_passes_check(self, tikka_model):
        phi = find_causal_ordering(tikka_model)
        assert phi is not None
        assert check_causal_ordering(tikka_model, phi).ok

    def test_bijection_invariant(self, common_cause_model):
        bad = np.zeros((common_cause_model.space.n_configs, 3), dtype=np.int16)
        with pytest.raises(FieldcoreError):
            CausalOrdering(tuple(common_cause_model.agents), bad)

    def test_search_takes_at_most_63_agents(self, monkeypatch):
        # one array axis per agent plus nature; NumPy allows 64 axes
        def trivial_model(n):
            agents = tuple(f"A{i}" for i in range(n))
            one = {a: FiniteSpace(f"s[{a}]", ("*",)) for a in agents}
            space = ConfigSpace(agents, one, one)
            return WModel(space, {a: InformationField.from_mask(
                space, a, CoordinateMask({a}, frozenset(agents[:1]) - {a})) for a in agents})

        # The memo bound of 2^63 cells exceeds the budget, although this
        # search fills only the 64 cells of one chain of agent sets.
        cap = f"capped at {solvability.ORDERING_MEMO_CELLS} memo cells"
        with pytest.raises(FieldcoreError, match=cap):
            find_causal_ordering(trivial_model(63))
        monkeypatch.setattr(solvability, "ORDERING_MEMO_CELLS", 1 << 63)
        phi = find_causal_ordering(trivial_model(63))
        assert phi.ordering_at(0) == tuple(f"A{i}" for i in range(63))
        with pytest.raises(FieldcoreError, match="capped at 63 agents"):
            find_causal_ordering(trivial_model(64))
        with pytest.raises(FieldcoreError, match="capped at 63 agents"):
            find_causal_ordering(trivial_model(64), max_agents=64)

    def test_memo_budget_checked_before_search(self, kuh_model, monkeypatch):
        cells = 128 * 3 ** 7
        assert cells <= solvability.ORDERING_MEMO_CELLS
        monkeypatch.setattr(solvability, "ORDERING_MEMO_CELLS", cells - 1)
        monkeypatch.setattr(solvability.np, "full", None)  # the memo's allocator
        with pytest.raises(FieldcoreError, match=f"needs {cells}"):
            find_causal_ordering(kuh_model)
        monkeypatch.undo()
        monkeypatch.setattr(solvability, "ORDERING_MEMO_CELLS", cells)
        assert find_causal_ordering(kuh_model) is not None

    def test_ordering_with_wrong_row_count_rejected(self, common_cause_model):
        rows = np.tile(np.arange(3, dtype=np.int16), (10, 1))
        phi = CausalOrdering(tuple(common_cause_model.agents), rows)
        with pytest.raises(FieldcoreError, match="one row per configuration"):
            check_causal_ordering(common_cause_model, phi)

    def test_check_visits_prefixes_in_row_order(self):
        # A2 sees u_A0 and A3 sees u_A1; where omega_A0 = 0 the order is
        # A0 A3 A1 A2, elsewhere A1 A2 A0 A3.  Both two-agent prefixes fail,
        # and (A0, A3) is the smaller row although A3 > A2.
        agents = ("A0", "A1", "A2", "A3")
        space = ConfigSpace(agents, *binary_spaces(agents))
        seen = {"A0": (), "A1": (), "A2": ("A0",), "A3": ("A1",)}
        info = {a: InformationField.from_mask(space, a, CoordinateMask({a}, seen[a]))
                for a in agents}
        m = WModel(space, info)
        rows = np.where(space.coord_values(("n", "A0"))[:, None] == 0, [0, 3, 1, 2], [1, 2, 0, 3])
        phi = CausalOrdering(agents, rows)
        res = check_causal_ordering(m, phi)
        assert res.violating_prefix == ("A0", "A3")
        assert res == check_causal_ordering_oracle(m, phi)

    def test_search_matches_oracle_on_random_models(self):
        rng = np.random.default_rng(2024)
        models = [random_mask_model(rng, self_observing=bool(rng.random() < 0.2))
                  for _ in range(40)] + [context_model(rng) for _ in range(150)]
        kinds = set()
        for m in models:
            phi = find_causal_ordering(m)
            ref = find_causal_ordering_oracle(m)
            assert (phi is None) == (ref is None)
            if phi is not None:
                assert np.array_equal(phi.orders, ref.orders)
            kinds.add(ordering_kind(phi))
        assert kinds == {None, "constant", "non-constant"}

    def test_search_matches_oracle_on_six_agent_models(self, kuh_model):
        rng = np.random.default_rng(77)
        cases = [(random_dag_model(rng, 6, float(rng.uniform(0.2, 0.5)))[0], 6)
                 for _ in range(3)]
        cases += [(random_mask_model(rng, 6, edge_prob=0.35), 6) for _ in range(3)]
        cases.append((kuh_model, 7))
        for m, n in cases:
            phi = find_causal_ordering(m)
            ref = find_causal_ordering_oracle(m, max_agents=n, max_configs=20_000)
            assert (phi is None) == (ref is None)
            if phi is not None:
                assert np.array_equal(phi.orders, ref.orders)

    def test_check_matches_oracle(self):
        rng = np.random.default_rng(31)
        verdicts = set()
        for _ in range(80):
            m = context_model(rng) if rng.random() < 0.7 else random_mask_model(rng)
            n, n_configs = len(m.agents), m.space.n_configs
            shuffled = rng.permuted(np.tile(np.arange(n), (n_configs, 1)), axis=1)
            phis = [CausalOrdering.constant(m, [m.agents[i] for i in rng.permutation(n)]),
                    CausalOrdering(tuple(m.agents), shuffled)]
            found = find_causal_ordering(m)
            if found is not None:
                phis.append(found)
                # reverse a few whole rows, then a few rows after their first agent
                for start in (0, 1):
                    orders = found.orders.copy()
                    rows = rng.choice(n_configs, size=min(3, n_configs), replace=False)
                    orders[rows, start:] = orders[rows, start:][:, ::-1]
                    phis.append(CausalOrdering(tuple(m.agents), orders))
            for phi in phis:
                res = check_causal_ordering(m, phi)
                assert res == check_causal_ordering_oracle(m, phi)
                verdicts.add(res.ok)
        assert verdicts == {True, False}


class TestVerifyFactorization:
    def test_xor_canonical_profile_factors_through_fig4_splitting(self, xor_model):
        cert = topologically_separated(
            xor_model, {"X3"}, {"X4"}, {"X0", "X1", "X2"}
        )
        rep = verify_factorization(
            xor_model, xor_model.canonical_profile, None, cert,
            {"X3"}, {"X4"}, {"X0", "X1", "X2"},
        )
        assert rep.passed and not rep.vacuous
        assert rep.certificate.y_block == {"X0", "X3"}
        assert rep.certificate.z_block == {"X1", "X2", "X4"}
        assert rep.certificate.residual == frozenset()

    def test_every_solvable_profile_factors_through_some_splitting(self, xor_model):
        # Both valid splittings of W = {X0,X1,X2} factor the solution map in
        # the W-pinned form that verify_factorization checks, on profiles
        # where the fixed-split form (one side's W decisions an output of its
        # block, given the other side's) fails; X3 and X4 stay independent
        # given W.  Each fixed-split failure is read off the solution map at
        # two nature points: same block noises, same opposite-side W
        # decisions, different block decisions.
        m = xor_model
        w = {"X0", "X1", "X2"}
        cert_a = topologically_separated(m, {"X3"}, {"X4"}, w)
        assert cert_a.splitting.w_y == {"X0"}
        cert_b = SeparationCertificate(
            Splitting(frozenset({"X0", "X2"}), frozenset({"X1"})),
            frozenset({"X0", "X2", "X3"}), frozenset({"X1", "X4"}),
        )
        hand_built = tabulated_profile(m, HAND_BUILT_XOR_RULES)
        seed55 = PolicyProfile({
            a: Policy(a, np.array(t)) for a, t in SEED55_BOTH_SPLITS_FAIL_TABLES.items()
        })
        # (profile, [(block, opposite W part, nature point pair)])
        cases = (
            (hand_built, [
                ({"X1", "X2", "X4"}, {"X0"}, ("00000", "10000")),
            ]),
            (seed55, [
                ({"X1", "X2", "X4"}, {"X0"}, ("01000", "11000")),
                ({"X0", "X2", "X3"}, {"X1"}, ("00000", "01000")),
            ]),
        )
        for profile, fixed_split_failures in cases:
            sol = solve(m, profile)
            assert sol.solvable
            for block, pinned, (bits_1, bits_2) in fixed_split_failures:
                om_1, om_2 = xor_omega(bits_1), xor_omega(bits_2)
                s_1, s_2 = sol.solution(om_1), sol.solution(om_2)
                assert all(om_1[a] == om_2[a] for a in block)
                assert all(s_1.decision_part[a] == s_2.decision_part[a] for a in pinned)
                assert any(s_1.decision_part[a] != s_2.decision_part[a] for a in block)
            for cert in (cert_a, cert_b):
                rep = verify_factorization(m, profile, None, cert, {"X3"}, {"X4"}, w)
                assert rep.passed and not rep.vacuous
                assert [c.name for c in rep.checks] == [
                    "y-block", "z-block", "residual", "rectangle"]
            ci = cond_independent(
                pushforward(m, profile), u_mask({"X3"}), u_mask({"X4"}), u_mask(w)
            )
            assert ci.independent

    def test_non_local_noise_dependence_is_caught(self):
        # a and b both read c's noise, and no decision: separated given W = {},
        # yet u_a = u_b = omega_c makes them dependent; the block check fails.
        agents = ("a", "b", "c")
        nature, decisions = binary_spaces(agents)
        space = ConfigSpace(agents, nature, decisions)
        info = {
            a: InformationField.from_mask(space, a, CoordinateMask({a, "c"}, frozenset()))
            for a in agents
        }
        m = WModel(space, info, prior=Prior.uniform(space))
        profile = tabulated_profile(m, {a: (lambda om, u: om["c"]) for a in agents})
        cert = topologically_separated(m, {"a"}, {"b"}, ())
        assert cert.closure_y == {"a"} and cert.closure_z == {"b"}
        ci = cond_independent(pushforward(m, profile), u_mask({"a"}), u_mask({"b"}),
                              u_mask(()))
        assert not ci.independent
        rep = verify_factorization(m, profile, None, cert, {"a"}, {"b"}, ())
        assert not rep.passed
        failed = {c.name: c.witness for c in rep.checks if not c.passed}
        assert set(failed) == {"y-block", "z-block"}
        first, second = failed["y-block"]
        assert first["a"] == second["a"] and first["c"] != second["c"]

    def test_disjoint_ancestral_components_with_empty_w(self):
        g = Dag(("a", "b", "c", "d"), {("a", "b"), ("c", "d")})
        m = dag_to_idm(g)
        cert = topologically_separated(m, {"b"}, {"d"}, ())
        assert cert is not None
        rng = np.random.default_rng(5)
        rep = verify_factorization(
            m, sample_profiles(m, 1, rng)[0], None, cert, {"b"}, {"d"}, ()
        )
        assert rep.passed

    def test_corrupted_certificate_rejected(self, xor_model):
        cert = topologically_separated(
            xor_model, {"X3"}, {"X4"}, {"X0", "X1", "X2"}
        )
        bad = SeparationCertificate(
            Splitting(cert.splitting.w_y | {"X1"},
                      cert.splitting.w_z - {"X1"}),
            cert.closure_y, cert.closure_z,
        )
        with pytest.raises(InvalidCertificateError):
            verify_factorization(
                xor_model, xor_model.canonical_profile, None, bad,
                {"X3"}, {"X4"}, {"X0", "X1", "X2"},
            )

    def test_empty_restricted_domain_is_vacuous(self, xor_model):
        # a context no solution reaches: X3 plays the opposite of its noise
        ctx_mask = np.zeros(xor_model.space.n_configs, dtype=bool)
        nvals = xor_model.space.coord_values(("n", "X3"))
        uvals = xor_model.space.coord_values(("u", "X3"))
        ctx_mask[nvals != uvals] = True
        ctx = ConfigSet(xor_model.space, ctx_mask)
        cert = topologically_separated(
            xor_model, {"X3"}, {"X4"}, {"X0", "X1", "X2"}, ctx
        )
        if cert is None:
            pytest.skip("query not separated on this context")
        rep = verify_factorization(
            xor_model, xor_model.canonical_profile, ctx, cert,
            {"X3"}, {"X4"}, {"X0", "X1", "X2"},
        )
        assert rep.vacuous and rep.passed

    def test_matches_oracle_on_random_models(self):
        # DAG models, and mask models whose fields read other agents' noise so
        # that the block checks fail; full, pinned and random contexts.  Only
        # a failing rectangle check may name another pair: it must still be a
        # counterexample.
        rng = np.random.default_rng(2024)
        failed = {"block": 0, "rectangle": 0}
        reports = 0
        for case in range(160):
            n = int(rng.integers(2, 5))
            if case % 2:
                m, _ = random_dag_model(rng, n=n)
            else:
                m = random_mask_model(rng, n_agents=n, local_noise=False)
            ctx = random_context(rng, m.space)
            y, z, w = random_disjoint_sets(rng, m.agents)
            cert = topologically_separated(m, y, z, w, ctx)
            if cert is None:
                continue
            # with no context, the relation under ctx is read without the
            # fold: conditioning on fixed decisions only removes separation
            assert topologically_separated(m, y, z, w, relation=precedes(m, w, ctx))
            profiles = [p for p in sample_profiles(m, 8, rng) if solve(m, p).solvable]
            for profile in profiles[:3]:
                got = verify_factorization(m, profile, ctx, cert, y, z, w)
                want = verify_factorization_oracle(m, profile, ctx, cert, y, z, w)
                reports += 1
                assert (got.certificate, got.vacuous, got.domain_size) == \
                    (want.certificate, want.vacuous, want.domain_size)
                assert [(c.name, c.passed) for c in got.checks] == \
                    [(c.name, c.passed) for c in want.checks]
                for g, o in zip(got.checks, want.checks):
                    if g.passed:
                        continue
                    if g.name == "rectangle":
                        failed["rectangle"] += 1
                        assert is_rectangle_counterexample(
                            m, profile, ctx, w,
                            (got.certificate.y_block, got.certificate.z_block), g.witness)
                    else:
                        failed["block"] += 1
                        assert g == o
        assert reports > 100
        assert failed["block"] > 0 and failed["rectangle"] > 0
