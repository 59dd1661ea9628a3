import numpy as np
import pytest

from infodep.fieldcore import (
    ConfigSet,
    ConfigSpace,
    CoordinateMask,
    FieldcoreError,
    FiniteSpace,
    SpaceMismatchError,
    partition_from_codes,
)
from infodep.dsep import DsepQuery, d_separated, random_dag
from infodep.model import Dag, InformationField, WModel, builtin, dag_to_idm
from infodep.precedence import (
    PrecedenceRelation,
    SeparationCertificate,
    Splitting,
    closure,
    is_closed,
    precedes,
    precedes_oracle,
    topologically_separated,
)
from infodep.probability import verify_docalculus

from conftest import (
    context_model,
    fixed_decisions,
    random_context,
    random_disjoint_sets,
    random_dag_model,
    random_mask_model,
)


def separated_oracle(m, y, z, w=(), ctx=None, relation=None):
    """Reference for `topologically_separated`: the literal 2^|W| search.

    W first gains the decisions ctx fixes (`fixed_decisions`).  Splittings
    are visited in increasing binary order over w sorted by the canonical
    agent order (bit k set sends the k-th element to the y side); the first
    with disjoint closures wins.  None when every splitting fails.
    """
    y, z = frozenset(y), frozenset(z)
    w = frozenset(w) | fixed_decisions(m, y, z, ctx)
    rel = relation if relation is not None else precedes(m, w, ctx)
    rstar = rel.reflexive_transitive_closure
    w_sorted = [a for a in m.agents if a in w]
    for bits in range(1 << len(w_sorted)):
        w_y = frozenset(a for k, a in enumerate(w_sorted) if bits >> k & 1)
        w_z = w - w_y
        cl_y = rstar.foreset(y | w_y)
        cl_z = rstar.foreset(z | w_z)
        if not (cl_y & cl_z):
            return SeparationCertificate(Splitting(w_y, w_z), cl_y, cl_z)
    return None


def rstar_oracle(rel):
    """Reference for `reflexive_transitive_closure`: the two-step form it
    replaced, a Warshall pass over R for R+ and then the diagonal."""
    m = rel.matrix.copy()
    for k in range(len(rel.agents)):
        m |= np.outer(m[:, k], m[k, :])
    return PrecedenceRelation(rel.agents, m | np.eye(len(rel.agents), dtype=bool))


def restrict_oracle(rel, keep):
    """Reference for `diagonal_restrict`: clear each row outside `keep` in turn."""
    keep = set(keep)
    m = rel.matrix.copy()
    for i, b in enumerate(rel.agents):
        if b not in keep:
            m[i, :] = False
    return PrecedenceRelation(rel.agents, m)


def unit_model(n):
    """n agents with one-point nature and decision spaces: one configuration,
    so any relation can be handed to the relation layer as `relation=`."""
    agents = tuple(f"A{i}" for i in range(n))
    one = {a: FiniteSpace(f"s[{a}]", ("*",)) for a in agents}
    space = ConfigSpace(agents, one, one)
    return WModel(space, {a: InformationField.from_mask(space, a, CoordinateMask({a}, ()))
                          for a in agents})


def certificate_kind(cert):
    if cert is None:
        return "not-separated"
    split = cert.splitting
    return "split" if split.w_y and split.w_z else "one-sided"


def context_kind(ctx):
    """Which branch of `random_context` a context looks like."""
    if ctx is None:
        return "full"
    space = ctx.space
    pins = (ConfigSet.from_pins(space, decision={a: lab})
            for a in space.agents for lab in space.decisions[a].elements)
    return "pinned" if any(ctx == p for p in pins) else "random"


def model_features(m):
    """The kinds of coordinate and field a model exercises."""
    out = {f"{kind}-size-{sp.size}" for kind, spaces in (("n", m.nature), ("u", m.decisions))
           for sp in spaces.values()}
    for a, f in m.info.items():
        if f.mask is None:
            out.add("observation-table")
            continue
        if a in f.mask.decision:
            out.add("self-observing")
        if f.mask.nature - {a}:
            out.add("non-local-noise")
    return out


def gated_dag_model(rng, n):
    """A random DAG model in which each node with two or more parents, with
    probability 0.7, sees a gated parent p only where a switch parent s
    plays 1 (tikka-context's shape).  Returns the DAG, the model, the gated
    edges and the switches."""
    g = random_dag(n, 0.5, rng)
    m = dag_to_idm(g)
    space, info, gated, switches = m.space, dict(m.info), set(), set()
    for v in g.nodes:
        parents = g.parents(v)
        if len(parents) < 2 or rng.random() >= 0.7:
            continue
        s, p = (str(a) for a in rng.choice(parents, 2, replace=False))
        seen, _ = space.mask_codes(CoordinateMask({v}, set(parents) - {p}))
        u_s, u_p = space.coord_values(("u", s)), space.coord_values(("u", p))
        codes = seen * 3 + np.where(u_s == 1, u_p, 2)
        info[v] = InformationField(v, partition_from_codes(space, codes))
        gated.add((p, v))
        switches.add(s)
    return g, WModel(space, info), gated, switches


class TestPrecedes:
    def test_xor_parent_sets(self, xor_model):
        rel = precedes(xor_model)
        assert rel.predecessors("X0") == {"X1", "X2", "X3"}
        assert rel.predecessors("X1") == {"X0", "X2", "X4"}
        assert rel.predecessors("X2") == {"X0", "X1"}
        assert rel.predecessors("X3") == frozenset()
        assert rel.predecessors("X4") == frozenset()

    def test_nature_only_field_has_no_predecessors(self, common_cause_model):
        assert precedes(common_cause_model).predecessors("Z") == frozenset()

    def test_context_switch_toggles_arc(self, tikka_model):
        h0 = ConfigSet.from_pins(tikka_model.space, decision={"s": "0"})
        h1 = ConfigSet.from_pins(tikka_model.space, decision={"s": "1"})
        assert not precedes(tikka_model, ctx=h0).holds("a", "b")
        assert precedes(tikka_model, ctx=h1).holds("a", "b")

    def test_rows_in_w_are_cleared(self, xor_model):
        rel = precedes(xor_model, w={"X1"})
        assert not any(rel.holds("X1", a) for a in xor_model.agents)

    def test_delta_identity(self, xor_model):
        # conditioning on W only clears the W rows of the unconditional relation
        for w in ({"X0"}, {"X1", "X2"}, {"X0", "X3", "X4"}):
            direct = precedes(xor_model, w)
            derived = precedes(xor_model).diagonal_restrict(
                set(xor_model.agents) - set(w)
            )
            assert direct == derived

    def test_empty_context_rejected(self, xor_model):
        empty = ConfigSet(xor_model.space, np.zeros(xor_model.space.n_configs, bool))
        with pytest.raises(FieldcoreError):
            precedes(xor_model, ctx=empty)


class TestOracleAgreement:
    def test_xor_agrees(self, xor_model):
        assert precedes(xor_model) == precedes_oracle(xor_model)

    def test_tikka_agrees_on_contexts(self, tikka_model):
        for pins in ({"s": "0"}, {"s": "1"}):
            ctx = ConfigSet.from_pins(tikka_model.space, decision=pins)
            assert precedes(tikka_model, ctx=ctx) == precedes_oracle(tikka_model, ctx=ctx)

    def test_trivial_single_agent_model(self):
        rng = np.random.default_rng(0)
        m = random_mask_model(rng, n_agents=1)
        rel = precedes(m)
        assert rel.predecessors(m.agents[0]) == frozenset()
        assert rel == precedes_oracle(m)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_models_random_contexts(self, seed):
        rng = np.random.default_rng(1000 + seed)
        for _ in range(10):
            m = random_mask_model(rng, local_noise=False)
            w = frozenset(a for a in m.agents if rng.random() < 0.3)
            ctx = random_context(rng, m.space)
            assert precedes(m, w, ctx) == precedes_oracle(m, w, ctx)

    def test_richer_models_all_context_kinds(self):
        # 1-, 2- and 3-valued coordinates, observation tables that see a
        # decision only where a context decision is 0, self-observing and
        # non-local-noise masks, random W, every kind of random context
        rng = np.random.default_rng(4242)
        kinds, features = set(), set()
        for _ in range(200):
            m = context_model(rng, self_observing=bool(rng.integers(2)),
                              local_noise=bool(rng.integers(2)))
            w = frozenset(a for a in m.agents if rng.random() < 0.3)
            ctx = random_context(rng, m.space)
            rel = precedes(m, w, ctx)
            assert rel == precedes_oracle(m, w, ctx)
            kinds.add(context_kind(ctx))
            features |= model_features(m)
            if ctx is not None and rel.matrix.any():
                features.add("arc-under-context")
        assert kinds == {"full", "pinned", "random"}
        assert features >= {
            "n-size-1", "n-size-2", "n-size-3", "u-size-1", "u-size-2", "u-size-3",
            "observation-table", "self-observing", "non-local-noise",
            "arc-under-context",
        }

    def test_oracle_cap(self):
        # one nature label per agent: 2**13 configurations, past the 12-agent cap
        agents = tuple(f"A{i}" for i in range(13))
        space = ConfigSpace(agents, {a: FiniteSpace(f"omega[{a}]", ("*",)) for a in agents},
                            {a: FiniteSpace.binary(f"u[{a}]") for a in agents})
        info = {a: InformationField.from_mask(space, a, CoordinateMask()) for a in agents}
        with pytest.raises(FieldcoreError, match="oracle capped at 12 agents"):
            precedes_oracle(WModel(space, info))


class TestForeignContext:
    """A context from another space is refused, even one of the same size."""

    @pytest.mark.parametrize("name", ["common-cause", "witsenhausen-xor"])
    def test_relation_layer(self, name, tikka_model):
        m = builtin(name)
        ctx = ConfigSet.from_pins(tikka_model.space, decision={"s": "1"})
        a, b = m.agents[:2]
        with pytest.raises(SpaceMismatchError):
            precedes(m, ctx=ctx)
        with pytest.raises(SpaceMismatchError):
            closure(m, {a}, ctx=ctx)
        with pytest.raises(SpaceMismatchError):
            topologically_separated(m, {a}, {b}, ctx=ctx)


class TestRelationAlgebra:
    def test_reflexive_transitive_closure_of_a_chain(self):
        agents = ("a", "b", "c")
        m = np.zeros((3, 3), dtype=bool)
        m[0, 1] = True  # a precedes b
        m[1, 2] = True  # b precedes c
        star = PrecedenceRelation(agents, m).reflexive_transitive_closure
        assert star.holds("a", "c") and star.holds("a", "a")
        assert not star.holds("c", "a")

    def test_caller_array_stays_writeable_and_detached(self):
        a = np.zeros((2, 2), dtype=bool)
        rel = PrecedenceRelation(("a", "b"), a)
        assert a.flags.writeable and rel.matrix is not a
        a[0, 1] = True
        assert not rel.holds("a", "b")
        assert not rel.matrix.flags.writeable

    def test_foreset(self):
        agents = ("a", "b", "c")
        m = np.zeros((3, 3), dtype=bool)
        m[0, 1] = m[2, 1] = True
        rel = PrecedenceRelation(agents, m)
        assert rel.foreset({"b"}) == {"a", "c"}
        assert rel.foreset(()) == frozenset()


class TestRelationFold:
    """One Warshall pass over R | I, and one row mask, equal the code they replaced."""

    def test_random_relations(self):
        rng = np.random.default_rng(7070)
        for n in range(1, 14):
            agents = tuple(f"A{i}" for i in range(n))
            for density in (0.0, 1.0, *rng.uniform(0.02, 0.5, 20)):
                rel = PrecedenceRelation(agents, rng.random((n, n)) < density)
                assert rel.reflexive_transitive_closure == rstar_oracle(rel)
                for keep in ((), agents, [a for a in agents if rng.random() < 0.5]):
                    restricted = rel.diagonal_restrict(keep)
                    assert restricted == restrict_oracle(rel, keep)
                    assert restricted.reflexive_transitive_closure == rstar_oracle(restricted)

    def test_precedes_relations_under_contexts(self):
        rng = np.random.default_rng(7171)
        kinds = set()
        for i in range(120):
            m = (context_model(rng, self_observing=bool(rng.integers(2))) if i % 2
                 else random_mask_model(rng, local_noise=False))
            w = frozenset(a for a in m.agents if rng.random() < 0.3)
            ctx = random_context(rng, m.space)
            rel = precedes(m, (), ctx)
            keep = set(m.agents) - w
            restricted = rel.diagonal_restrict(keep)
            assert restricted == restrict_oracle(rel, keep) == precedes(m, w, ctx)
            for r in (rel, restricted):
                assert r.reflexive_transitive_closure == rstar_oracle(r)
            kinds.add(context_kind(ctx))
        assert kinds == {"full", "pinned", "random"}


class TestClosure:
    def test_kuh_caption_closure(self, kuh_model):
        assert closure(kuh_model, {"Y1", "W"}, {"W"}) == {"Y1", "W", "X3"}
        assert closure(kuh_model, {"Y2"}, {"W"}) == {"Y2"}

    def test_empty_set(self, xor_model):
        assert closure(xor_model, ()) == frozenset()

    def test_jpcbh_caption_closure(self, jpcbh_model):
        assert closure(jpcbh_model, {"X1", "Y1"}, {"Y1", "Y2"}) == {"X1", "Y1", "xi1"}

    @pytest.mark.parametrize("seed", range(10))
    def test_closure_operator_laws(self, seed):
        rng = np.random.default_rng(2000 + seed)
        m = random_mask_model(rng, local_noise=False)
        w = frozenset(a for a in m.agents if rng.random() < 0.3)
        ctx = random_context(rng, m.space)
        rel = precedes(m, w, ctx)
        agents = list(m.agents)
        b = frozenset(a for a in agents if rng.random() < 0.5)
        c = b | frozenset(a for a in agents if rng.random() < 0.3)
        cl_b = closure(m, b, w, ctx, relation=rel)
        cl_c = closure(m, c, w, ctx, relation=rel)
        assert b <= cl_b                                  # extensive
        assert cl_b <= cl_c                               # monotone
        assert closure(m, cl_b, w, ctx, relation=rel) == cl_b  # idempotent
        assert closure(m, (), w, ctx, relation=rel) == frozenset()
        # least: the intersection of every closed superset of b
        closed_supersets = [
            s for s in (frozenset(a for k, a in enumerate(agents) if bits >> k & 1)
                        for bits in range(1 << len(agents)))
            if b <= s and is_closed(m, s, w, ctx, relation=rel)
        ]
        assert cl_b == frozenset.intersection(*closed_supersets)
        assert is_closed(m, set(agents) - w, w, ctx, relation=rel)  # W itself is open
        assert is_closed(m, agents, w, ctx, relation=rel)
        # arbitrary unions of closed sets stay closed
        d = frozenset(a for a in agents if rng.random() < 0.5)
        cl_d = closure(m, d, w, ctx, relation=rel)
        assert is_closed(m, cl_b | cl_d, w, ctx, relation=rel)

    def test_one_matrix_closure_per_relation(self, xor_model, monkeypatch):
        # a Warshall pass is one outer product per agent; one pass serves the
        # separation query and both closures after it
        w = {"X0", "X1", "X2"}
        rel = precedes(xor_model, w)
        calls = []
        original = np.outer

        def counting(a, b):
            calls.append(1)
            return original(a, b)

        monkeypatch.setattr(np, "outer", counting)
        cert = topologically_separated(xor_model, {"X3"}, {"X4"}, w, relation=rel)
        split = cert.splitting
        assert closure(xor_model, {"X3"} | split.w_y, relation=rel) == cert.closure_y
        assert closure(xor_model, {"X4"} | split.w_z, relation=rel) == cert.closure_z
        assert len(calls) == len(xor_model.agents)

    def test_x2_not_closed_in_xor(self, xor_model):
        assert not is_closed(xor_model, {"X2"})


class TestSeparation:
    def test_jpcbh_certificate(self, jpcbh_model):
        cert = topologically_separated(jpcbh_model, {"X1"}, {"X2"}, {"Y1", "Y2"})
        assert cert is not None
        assert cert.splitting.w_y == {"Y1"} and cert.splitting.w_z == {"Y2"}
        assert cert.closure_y == {"X1", "Y1", "xi1"}
        assert cert.closure_z == {"X2", "Y2", "xi2"}

    def test_xor_certificate_and_failure(self, xor_model):
        cert = topologically_separated(xor_model, {"X3"}, {"X4"}, {"X0", "X1", "X2"})
        assert cert is not None
        assert cert.splitting.w_y == {"X0"}
        assert cert.splitting.w_z == {"X1", "X2"}
        assert topologically_separated(xor_model, {"X3"}, {"X4"}, {"X0", "X1"}) is None

    def test_overlapping_sets_rejected(self, xor_model):
        with pytest.raises(FieldcoreError):
            topologically_separated(xor_model, {"X3"}, {"X3"}, {"X0"})

    def test_empty_z_is_separated_but_searched(self, xor_model):
        cert = topologically_separated(xor_model, {"X3"}, (), {"X0", "X1", "X2"})
        assert cert is not None
        assert not (cert.closure_y & cert.closure_z)

    @pytest.mark.parametrize("seed", range(12))
    def test_symmetry(self, seed):
        # about one draw in ten is separated, so each seed draws 40 queries
        rng = np.random.default_rng(3000 + seed)
        separated = 0
        for _ in range(40):
            m = random_mask_model(rng, n_agents=5)
            y, z, w = random_disjoint_sets(rng, m.agents)
            ctx = random_context(rng, m.space)
            c1 = topologically_separated(m, y, z, w, ctx)
            c2 = topologically_separated(m, z, y, w, ctx)
            assert (c1 is None) == (c2 is None)
            if c1 is None:
                continue
            separated += 1
            # c2 certifies the swapped query with its own splitting's closures
            assert c2.closure_y == closure(m, set(z) | c2.splitting.w_y, w, ctx)
            assert c2.closure_z == closure(m, set(y) | c2.splitting.w_z, w, ctx)
            # each pass absorbs the least set, so neither w_y exceeds the
            # other query's w_z; the swapped closures need not be c1's
            assert c2.splitting.w_y <= c1.splitting.w_z
            assert c1.splitting.w_y <= c2.splitting.w_z
        assert separated > 0


class TestGatedDags:
    """With every switch pinned to 0, separation on the gated model is
    d-separation given W and the switches on the DAG without the gated
    edges: the labelled-DAG reading of context-specific independence."""

    def test_matches_d_separation_on_the_reduced_dag(self):
        rng = np.random.default_rng(26)
        separated, refuted = [], []
        for _ in range(40):
            g, m, gated, switches = gated_dag_model(rng, int(rng.integers(5, 7)))
            ctx = ConfigSet.from_pins(m.space, decision={s: "0" for s in switches})
            reduced = Dag(g.nodes, g.edges - gated)
            base = precedes(m, ctx=ctx)
            others = [v for v in g.nodes if v not in switches]
            for i, y in enumerate(others):
                for z in others[i + 1:]:
                    rest = [v for v in others if v not in (y, z)]
                    for bits in range(1 << len(rest)):
                        w = frozenset(v for k, v in enumerate(rest) if bits >> k & 1)
                        rel = base.diagonal_restrict(set(g.nodes) - w)
                        cert = topologically_separated(m, {y}, {z}, w, ctx, relation=rel)
                        want = d_separated(reduced, DsepQuery({y}, {z}, w | switches))
                        assert (cert is not None) == want, (g, gated, switches, y, z, w)
                        query = (m, {y}, {z}, w, ctx)
                        if want:
                            separated.append(query)
                        elif topologically_separated(m, {y}, {z}, w, relation=rel):
                            # separated when the pinned switches are not conditioned on
                            refuted.append(query)
        assert len(separated) > 1000 and refuted
        for k in rng.choice(len(separated), 5, replace=False):
            rep = verify_docalculus(*separated[k], policy_trials=10, prior_trials=2,
                                    seed=int(k))
            assert rep.separated and rep.checks_run > 0 and rep.failures == ()
        reps = [verify_docalculus(*q, policy_trials=10, prior_trials=2) for q in refuted[:3]]
        assert all(not rep.separated for rep in reps)
        assert sum(rep.ci_violations_observed for rep in reps) > 0


class TestSeparationOracle:
    """The absorption pass returns the splitting search's first certificate."""

    def test_random_relations(self):
        rng = np.random.default_rng(5150)
        models = {n: unit_model(n) for n in range(3, 14)}
        kinds, largest_w = set(), 0
        for _ in range(1500):
            n = int(rng.integers(3, 14))
            m = models[n]
            rel = PrecedenceRelation(m.agents, rng.random((n, n)) < rng.uniform(0.02, 0.3))
            agents = list(m.agents)
            rng.shuffle(agents)
            ny, nz = 1 + int(rng.integers(2)), 1
            nw = int(rng.integers(0, min(10, n - ny - nz) + 1))
            y, z = agents[:ny], agents[ny:ny + nz]
            w = agents[ny + nz:ny + nz + nw]
            cert = topologically_separated(m, y, z, w, relation=rel)
            assert cert == separated_oracle(m, y, z, w, relation=rel)
            kinds.add(certificate_kind(cert))
            largest_w = max(largest_w, len(w))
        assert kinds == {"not-separated", "one-sided", "split"}
        assert largest_w == 10

    def test_random_models_all_context_kinds(self):
        rng = np.random.default_rng(6160)
        ctx_kinds, kinds = set(), set()
        folded_away = 0
        for i in range(300):
            if i % 2:
                m = random_mask_model(rng, n_agents=int(rng.integers(3, 7)),
                                      edge_prob=float(rng.uniform(0.15, 0.45)))
            else:
                m = random_dag_model(rng, n=int(rng.integers(3, 7)),
                                     edge_prob=float(rng.uniform(0.2, 0.5)))[0]
            y, z, w = random_disjoint_sets(rng, m.agents)
            ctx = random_context(rng, m.space)
            cert = topologically_separated(m, y, z, w, ctx)
            assert cert == separated_oracle(m, y, z, w, ctx)
            # with no context, the relation under ctx is read without the
            # fold: conditioning on fixed decisions only removes separation
            unfolded = separated_oracle(m, y, z, w, relation=precedes(m, w, ctx))
            assert cert is None or unfolded is not None
            folded_away += cert is None and unfolded is not None
            ctx_kinds.add(context_kind(ctx))
            kinds.add(certificate_kind(cert))
        assert ctx_kinds == {"full", "pinned", "random"}
        assert kinds == {"not-separated", "one-sided", "split"}
        assert folded_away > 0

    def test_richer_models_all_context_kinds(self):
        # 1-, 2- and 3-valued coordinates and observation tables: a decision
        # with one value is fixed by every context, and is not conditioned on
        rng = np.random.default_rng(4343)
        ctx_kinds, folded = set(), 0
        for _ in range(300):
            m = context_model(rng, self_observing=bool(rng.integers(2)))
            y, z, w = random_disjoint_sets(rng, m.agents)
            ctx = random_context(rng, m.space)
            cert = topologically_separated(m, y, z, w, ctx)
            assert cert == separated_oracle(m, y, z, w, ctx)
            ctx_kinds.add(context_kind(ctx))
            folded += bool(fixed_decisions(m, y, z, ctx) - w)
        assert ctx_kinds == {"full", "pinned", "random"}
        assert folded > 0

    def test_thirty_member_w(self):
        # 2^30 splittings: out of reach for the search, one pass for absorption.
        # Arcs stay inside two random halves, so the closures of the halves
        # never meet; Y sits in one half and Z in the other.
        rng = np.random.default_rng(40)
        m = unit_model(40)
        agents = list(m.agents)
        half = rng.permutation(40) < 20
        arcs = (rng.random((40, 40)) < 0.15) & (half[:, None] == half[None, :])
        rel = PrecedenceRelation(m.agents, arcs)
        y = [next(a for a, h in zip(agents, half) if h)]
        z = [next(a for a, h in zip(agents, half) if not h)]
        w = [a for a in agents if a not in y + z][:30]
        cert = topologically_separated(m, y, z, w, relation=rel)
        assert cert is not None
        split = cert.splitting
        assert split.w_y and split.w_z and split.w_y | split.w_z == set(w)
        assert not (cert.closure_y & cert.closure_z)
        assert cert.closure_y == closure(m, set(y) | split.w_y, relation=rel)
        assert cert.closure_z == closure(m, set(z) | split.w_z, relation=rel)
        # one arc from Y into Z puts Y's agent in both closures
        arcs = arcs.copy()
        arcs[agents.index(y[0]), agents.index(z[0])] = True
        rel = PrecedenceRelation(m.agents, arcs)
        assert topologically_separated(m, y, z, w, relation=rel) is None
