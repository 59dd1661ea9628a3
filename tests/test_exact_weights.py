"""Integer-weight probability against the `Fraction`-dict reference path.

Seeded mask and DAG models, full, pinned and random contexts, priors with
small denominators, with zero masses and with a common denominator far past
2**31 (so the Python-int path runs, and int64 or float arithmetic would
give wrong verdicts).
"""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import fraction_oracle as oracle
from infodep import probability
from infodep.fieldcore import ConfigSpace, CoordinateMask, FieldcoreError
from infodep.model import Prior, WModel
from infodep.probability import (
    CondQuery,
    ZeroMassContextError,
    cond_independent,
    conditional,
    project_dist,
    pushforward,
    restrict,
    verify_docalculus,
)
from infodep.solvability import sample_profiles, solve

from conftest import (
    binary_spaces,
    random_context,
    random_dag_model,
    random_disjoint_sets,
    random_mask_model,
)


def random_model(rng, seed):
    n = int(rng.integers(2, 5))
    if seed % 2:
        return random_mask_model(rng, n, local_noise=bool(seed % 3), edge_prob=0.5)
    return random_dag_model(rng, n=n, edge_prob=0.5)[0]


def with_zero_mass(rng, space, prior):
    """The prior with one random agent's mass moved onto its last label."""
    masses = dict(prior.masses)
    a = space.agents[int(rng.integers(len(space.agents)))]
    labels = space.nature[a].elements
    masses[a] = {lab: Fraction(lab == labels[-1]) for lab in labels}
    return Prior(masses)


def random_prior(rng, space, kind):
    """kind 0: small denominators; 1: one agent's mass on a single label; 2: large denominators."""
    if kind == 1:
        return with_zero_mass(rng, space, Prior.sample(space, rng))
    if kind == 0:
        return Prior.sample(space, rng)
    masses = {}
    for a in space.agents:
        labels = space.nature[a].elements
        denom = int(rng.integers(2 ** 24, 2 ** 25))
        nums = 1 + rng.multinomial(denom - len(labels), [1 / len(labels)] * len(labels))
        masses[a] = {lab: Fraction(int(k), denom) for lab, k in zip(labels, nums)}
    return Prior(masses)


def random_mask(rng, agents):
    return CoordinateMask(
        frozenset(a for a in agents if rng.random() < 0.3),
        frozenset(a for a in agents if rng.random() < 0.5),
    )


def ordered(rows):
    """A conditional table's rows with their order made part of the value."""
    return [(g, list(row.items())) for g, row in rows.items()]


def target_code(space, coords, key):
    code, stride = 0, 1
    for c, label in zip(coords, key):
        code += space.coord_space(c).index(label) * stride
        stride *= space.coord_space(c).size
    return code


def expected_dropping(space, support, mask_y, mask_w, mask_w_clz, ctx):
    """The dropping witness the library promises, from the reference tables:
    the first long given key (first-occurrence order) whose row differs from
    its short row, and there the smallest differing target code."""
    t_long = oracle.conditional(space, support, mask_y, mask_w_clz, ctx)
    t_short = oracle.conditional(space, support, mask_y, mask_w, ctx)
    long_coords, short_coords = space.mask_coords(mask_w_clz), space.mask_coords(mask_w)
    y_coords = space.mask_coords(mask_y)
    positions = [long_coords.index(c) for c in short_coords]
    for g_long, row_long in t_long.items():
        row_short = t_short[tuple(g_long[i] for i in positions)]
        bad = [t for t in set(row_long) | set(row_short)
               if row_long.get(t, Fraction(0)) != row_short.get(t, Fraction(0))]
        if bad:
            t = min(bad, key=lambda key: target_code(space, y_coords, key))
            return g_long, t, row_long.get(t, Fraction(0)), row_short.get(t, Fraction(0))
    return None


def cases(n_seeds):
    """(seed, rng, model, solvable profile, prior, context) over seeded models."""
    for seed in range(n_seeds):
        rng = np.random.default_rng([17, seed])
        m = random_model(rng, seed)
        ctx = random_context(rng, m.space)
        for k, profile in enumerate(sample_profiles(m, 3, rng)):
            if solve(m, profile).solvable:
                yield seed, rng, m, profile, random_prior(rng, m.space, (seed + k) % 3), ctx


def test_omega_weights_match_fraction_products():
    seen = Counter()
    for seed, rng, m, _, prior, _ in cases(30):
        weights, denom = prior.omega_weights(m.space)
        seen[weights.dtype == object] += 1
        got = [Fraction(int(w), denom) for w in weights]
        assert got == [oracle.omega_mass(prior, m.space, om) for om in range(m.space.n_omega)]
        assert prior.omega_mass(m.space, 1) == got[1]
    assert seen[True] and seen[False]


def test_integer_path_matches_fraction_path():
    seen = Counter()
    for seed, rng, m, profile, prior, ctx in cases(60):
        space = m.space
        d = pushforward(m, profile, prior)
        support = oracle.pushforward(m, profile, prior)
        assert list(d.support.items()) == list(support.items())
        assert d == pushforward(m, profile, prior)
        seen["large-D"] += d.denom >= 2 ** 31
        seen["zero-mass prior"] += len(support) < space.n_omega
        for _ in range(3):
            target, given = random_mask(rng, m.agents), random_mask(rng, m.agents)
            got = conditional(d, CondQuery(target, given, ctx))
            assert ordered(got.rows) == ordered(
                oracle.conditional(space, support, target, given, ctx))

            a, b, g = (random_mask(rng, m.agents) for _ in range(3))
            try:
                want = oracle.cond_independent(space, support, a, b, g, ctx)
            except ZeroMassContextError:
                seen["zero-mass context"] += 1
                with pytest.raises(ZeroMassContextError):
                    cond_independent(d, a, b, g, ctx)
                continue
            res = cond_independent(d, a, b, g, ctx)
            assert (res.independent, res.witness) == want
            seen["dependent" if not res.independent else "independent"] += 1

        mask = random_mask(rng, m.agents)
        if ctx is None:
            assert project_dist(d, mask) == oracle.project_dist(space, support, mask)
        elif any(ctx.member_mask[i] for i in support):
            got = project_dist(restrict(d, ctx), mask)
            assert list(got.items()) == list(oracle.project_dist(
                space, oracle.restrict(support, ctx), mask).items())
            assert restrict(d, ctx).support == oracle.restrict(support, ctx)
            assert (restrict(d, ctx) == d) == ctx.member_mask[d.index].all()
        else:
            with pytest.raises(ZeroMassContextError):
                restrict(d, ctx)
    assert min(seen[k] for k in ("large-D", "zero-mass prior", "zero-mass context",
                                 "dependent", "independent")) > 0, seen


def dropping_check(d, mask_y, mask_w, mask_w_clz, ctx):
    """The dropping test on the cells of the law's support inside ctx."""
    index, weights = probability._inside(d, ctx)
    cells = probability._cells(d.space, index, mask_w, mask_w_clz, mask_y)
    return probability._dropping_check(d.space, cells, weights, mask_y, mask_w_clz)


def test_dropping_witness_is_first_long_key_then_smallest_target_code():
    seen = Counter()
    for seed, rng, m, profile, prior, ctx in cases(60):
        d = pushforward(m, profile, prior)
        if ctx is not None and not ctx.member_mask[d.index].any():
            continue
        support = oracle.pushforward(m, profile, prior)
        y, z, w = random_disjoint_sets(rng, m.agents)
        dec = probability._decision_mask
        masks = dec(y), dec(w), dec(w | z)
        got = dropping_check(d, *masks, ctx)
        want = expected_dropping(m.space, support, *masks, ctx)
        assert got == want
        seen["none" if want is None else "mismatch"] += 1
    # rows sum to one, so a differing row differs at two targets at least,
    # and the choice between them is what this pins
    assert seen["mismatch"] and seen["none"], seen


def same_support_prior(rng, space, prior):
    """A fresh prior that gives positive mass to the labels `prior` does, and
    only those; its denominators are large when the prior's are."""
    large = max(p.denominator for dist in prior.masses.values() for p in dist.values()) > 64
    masses = {}
    for a, dist in prior.masses.items():
        labels = [lab for lab in space.nature[a].elements if dist[lab] > 0]
        denom = int(rng.integers(2 ** 24, 2 ** 25) if large else rng.integers(len(labels), 65))
        nums = 1 + rng.multinomial(denom - len(labels), [1 / len(labels)] * len(labels))
        masses[a] = {lab: Fraction(0) for lab in space.nature[a].elements}
        masses[a].update({lab: Fraction(int(k), denom) for lab, k in zip(labels, nums)})
    return Prior(masses)


def oracle_cell_sums(space, support, ctx, cells, masks):
    """Reference mass of each (k), (k, a), (k, b) and (k, a, b) cell: the
    oracle masses of the support inside the context, summed by label key."""
    k, a, b = (space.mask_coords(mask) for mask in masks)
    members = oracle._members(space, support, ctx)
    out = []
    for codes, coords in ((cells.k, k), (cells.ka, k + a), (cells.kb, k + b),
                          (cells.kab, k + a + b)):
        sums = {}
        for i, p in members:
            key = oracle._key_of(space, coords, i)
            sums[key] = sums.get(key, Fraction(0)) + p
        # codes are numbered by first occurrence, so unique's order is theirs
        firsts = np.unique(codes, return_index=True)[1]
        out.append([sums[oracle._key_of(space, coords, int(cells.index[j]))]
                    for j in firsts])
    return out


def test_cells_built_under_one_prior_serve_another_with_its_support():
    seen = Counter()
    dec = probability._decision_mask
    for seed, rng, m, profile, prior, ctx in cases(60):
        space = m.space
        other = same_support_prior(rng, space, prior)
        index, _ = probability._inside(pushforward(m, profile, prior), ctx)
        if not len(index):
            continue
        d = pushforward(m, profile, other)
        inside, weights = probability._inside(d, ctx)
        assert np.array_equal(inside, index)
        support = oracle.pushforward(m, profile, other)
        seen["zero-mass prior"] += len(support) < space.n_omega
        seen["large-D"] += d.denom >= 2 ** 31
        for _ in range(2):
            masks = [random_mask(rng, m.agents) for _ in range(3)]
            cells = probability._cells(space, index, *masks)
            ok, *sums = probability._balance(cells, weights)
            want = oracle_cell_sums(space, support, ctx, cells, masks)
            assert [[Fraction(int(p), d.denom) for p in s] for s in sums] == want
            g, a, b = masks
            res = probability._ci_check(space, cells, weights, a, b, g)
            assert (res.independent, res.witness) == \
                oracle.cond_independent(space, support, a, b, g, ctx)
            seen["dependent" if not res.independent else "independent"] += 1

            y, z, w = random_disjoint_sets(rng, m.agents)
            drop = probability._cells(space, index, dec(w), dec(w | z), dec(y))
            got = probability._dropping_check(space, drop, weights, dec(y), dec(w | z))
            assert got == expected_dropping(space, support, dec(y), dec(w), dec(w | z), ctx)
            seen["none" if got is None else "mismatch"] += 1
    assert min(seen[k] for k in ("zero-mass prior", "large-D", "dependent", "independent",
                                 "none", "mismatch")) > 0, seen


def test_verify_docalculus_matches_fraction_path(monkeypatch):
    # log each solve and each cell build, to see which builds served which profile
    log = []
    solve_, cells_ = probability.solve, probability._cells
    monkeypatch.setattr(probability, "solve", lambda *a: log.append("solve") or solve_(*a))
    monkeypatch.setattr(probability, "_cells", lambda *a: log.append("cells") or cells_(*a))
    seen = Counter()
    for seed in range(40):
        rng = np.random.default_rng([23, seed])
        m = random_model(rng, seed)
        # a model prior with a zero mass has a support of its own, while the
        # full-support sampled priors share one
        prior = with_zero_mass(rng, m.space, random_prior(rng, m.space, 2 * (seed % 2)))
        m = WModel(m.space, m.info, prior=prior, meta=m.meta)
        y, z, w = random_disjoint_sets(rng, m.agents)
        ctx = random_context(rng, m.space)
        log.clear()
        rep = verify_docalculus(m, y, z, w, ctx, policy_trials=6, prior_trials=5, seed=seed)
        want = oracle.verify_docalculus(m, y, z, w, ctx, policy_trials=6, prior_trials=5,
                                        seed=seed)
        per_profile = [seg.count("cells") // (1 + rep.separated)
                       for seg in "".join(log).split("solve")]
        seen["support shared"] += rep.checks_run > sum(per_profile)
        seen["support split"] += max(per_profile) > 1
        failures = want.pop("failures")
        assert {k: getattr(rep, k) for k in want} == want
        assert len(rep.failures) == len(failures)
        for got, (kind, pi, qi, detail) in zip(rep.failures, failures):
            assert (got.kind, got.profile_index, got.prior_index) == (kind, pi, qi)
            # the reference picks the dropping target in set order
            if kind == "conditional-dropping":
                assert got.detail[0] == detail[0]
            else:
                assert got.detail == detail
            seen[kind] += 1
        seen["violations observed"] += rep.ci_violations_observed
        seen["skipped zero mass"] += rep.skipped_zero_mass
    assert min(seen[k] for k in ("conditional-independence", "conditional-dropping",
                                 "violations observed", "skipped zero mass",
                                 "support shared", "support split")) > 0, seen


def test_exact_dist_rejects_bad_weights(xor_model):
    d = pushforward(xor_model, xor_model.canonical_profile)
    with pytest.raises(FieldcoreError):
        probability.ExactDist(d.space, d.index, d.weights, d.denom + 1)
    with pytest.raises(FieldcoreError):
        probability.ExactDist(d.space, d.index[:2], np.array([d.denom, 0]), d.denom)


def decision_law(cells):
    """A law on the decisions of binary agents a, b (, c) at nature point 0:
    {decision tuple: weight}, in support order."""
    agents = ("a", "b", "c")[:len(next(iter(cells)))]
    space = ConfigSpace(agents, *binary_spaces(agents))
    index = [space.n_omega * sum(u << k for k, u in enumerate(key)) for key in cells]
    weights = list(cells.values())
    return probability.ExactDist(space, np.array(index), np.array(weights, dtype=object),
                                 sum(weights))


@pytest.mark.parametrize("a_agents, cells, witness", [
    # one unit off a product: 1*1 - 1*2 = -1, less than the total in size
    ({"a"}, {(0, 0): 1, (0, 1): 1, (1, 0): 2, (1, 1): 1}, ((), ("0",), ("0",))),
    # joint * total - p(a) * p(b) = 2**64 at both seen cells: equal modulo 2**64
    ({"a"}, {(0, 0): 2 ** 33, (1, 1): 2 ** 31}, ((), ("0",), ("0",))),
    # the first row passes; the second fails first at a cell it never sees
    ({"a", "c"}, {(0, 0, 0): 1, (0, 1, 0): 1, (1, 1, 0): 2, (0, 0, 1): 2},
     ((), ("1", "0"), ("0",))),
])
def test_dependence_is_decided_exactly(a_agents, cells, witness):
    d = decision_law(cells)
    a, b = CoordinateMask(decision=a_agents), CoordinateMask(decision={"b"})
    res = cond_independent(d, a, b, CoordinateMask())
    assert (res.independent, res.witness) == (False, witness)
    assert oracle.cond_independent(d.space, d.support, a, b, CoordinateMask()) == \
        (False, witness)


def test_dropping_is_decided_exactly():
    # Q(u_a | u_b) against Q(u_a): 1/2 against (2K + 1) / (4K + 1), which
    # differ by less than a double's precision
    k = 2 ** 60
    d = decision_law({(0, 0): k, (1, 0): k, (0, 1): k + 1, (1, 1): k})
    y, w, w_clz = (CoordinateMask(decision=s) for s in ({"a"}, set(), {"b"}))
    want = (("0",), ("0",), Fraction(1, 2), Fraction(2 * k + 1, 4 * k + 1))
    assert expected_dropping(d.space, d.support, y, w, w_clz, None) == want
    assert dropping_check(d, y, w, w_clz, None) == want
