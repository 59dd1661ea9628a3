import numpy as np
import pytest

from infodep.fieldcore import ConfigSet, FieldcoreError, SpaceMismatchError
from infodep.model import builtin
from infodep.precedence import (
    PrecedenceRelation,
    closure,
    is_closed,
    is_open,
    precedes,
    precedes_oracle,
    topologically_separated,
)

from conftest import (
    context_model,
    random_context,
    random_disjoint_sets,
    random_mask_model,
)


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

    def test_oracle_cap(self, xor_model):
        with pytest.raises(FieldcoreError):
            precedes_oracle(xor_model, max_agents=3)


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
    def test_converse_and_compose(self):
        agents = ("a", "b", "c")
        m = np.zeros((3, 3), dtype=bool)
        m[0, 1] = True  # a precedes b
        m[1, 2] = True  # b precedes c
        rel = PrecedenceRelation(agents, m)
        assert rel.converse().holds("b", "a")
        assert rel.compose(rel).holds("a", "c")
        assert not rel.compose(rel).holds("a", "b")
        star = rel.reflexive_transitive_closure
        assert star.holds("a", "c") and star.holds("a", "a")

    def test_foreset(self):
        agents = ("a", "b", "c")
        m = np.zeros((3, 3), dtype=bool)
        m[0, 1] = m[2, 1] = True
        rel = PrecedenceRelation(agents, m)
        assert rel.foreset({"b"}) == {"a", "c"}
        assert rel.foreset(()) == frozenset()


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
        assert is_open(m, w, w, ctx, relation=rel)        # W itself is open
        assert is_closed(m, agents, w, ctx, relation=rel)
        # arbitrary unions of closed sets stay closed
        d = frozenset(a for a in agents if rng.random() < 0.5)
        cl_d = closure(m, d, w, ctx, relation=rel)
        assert is_closed(m, cl_b | cl_d, w, ctx, relation=rel)

    def test_one_matrix_closure_per_relation(self, xor_model, monkeypatch):
        w = {"X0", "X1", "X2"}
        rel = precedes(xor_model, w)
        calls = []
        original = PrecedenceRelation.transitive_closure

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(PrecedenceRelation, "transitive_closure", counting)
        cert = topologically_separated(xor_model, {"X3"}, {"X4"}, w, relation=rel)
        split = cert.splitting
        assert closure(xor_model, {"X3"} | split.w_y, relation=rel) == cert.closure_y
        assert closure(xor_model, {"X4"} | split.w_z, relation=rel) == cert.closure_z
        assert len(calls) == 1

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
        rng = np.random.default_rng(3000 + seed)
        m = random_mask_model(rng, n_agents=5)
        y, z, w = random_disjoint_sets(rng, m.agents)
        ctx = random_context(rng, m.space)
        c1 = topologically_separated(m, y, z, w, ctx)
        c2 = topologically_separated(m, z, y, w, ctx)
        assert (c1 is None) == (c2 is None)
        if c1 is not None:
            # some splitting with swapped roles certifies the swapped query
            assert {c2.closure_y, c2.closure_z} is not None
