"""The `Fraction`-dict probability path, kept as a reference for the tests.

These are the pushforward, conditional, independence and dropping routines
the library used before it moved to integer weights over one denominator:
every mass a `fractions.Fraction`, every law a dict keyed by configuration
index, every cell a dict keyed by label tuples.  `tests/test_exact_weights.py`
checks the integer-weight path against them on seeded models.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from infodep.fieldcore import ConfigSet, CoordinateMask
from infodep.precedence import closure, precedes, topologically_separated
from infodep.probability import ZeroMassContextError
from infodep.model import Prior
from infodep.solvability import sample_profiles, solve


def omega_mass(prior, space, omega_index):
    out = Fraction(1)
    for agent, label in space.omega_labels_at(omega_index).items():
        out *= prior.mass(agent, label)
    return out


def pushforward(m, profile, prior):
    """Configuration index -> exact mass, in nature-point order."""
    sol = solve(m, profile)
    assert sol.solvable
    support = {}
    for om in range(m.space.n_omega):
        mass = omega_mass(prior, m.space, om)
        if mass:
            i = int(sol.config_index[om])
            support[i] = support.get(i, Fraction(0)) + mass
    return support


def _key_of(space, coords, index):
    return tuple(space.coord_space(c).elements[int(space.coord_values(c, index))]
                 for c in coords)


def _members(space, support, ctx):
    ctx = ctx if ctx is not None else ConfigSet.full(space)
    return [(i, p) for i, p in support.items() if ctx.member_mask[i]]


def conditional(space, support, target, given, ctx=None):
    """given key -> (target key -> exact conditional mass)."""
    t_coords, g_coords = space.mask_coords(target), space.mask_coords(given)
    joint, totals = {}, {}
    for i, p in _members(space, support, ctx):
        g, t = _key_of(space, g_coords, i), _key_of(space, t_coords, i)
        row = joint.setdefault(g, {})
        row[t] = row.get(t, Fraction(0)) + p
        totals[g] = totals.get(g, Fraction(0)) + p
    return {g: {t: p / totals[g] for t, p in row.items()} for g, row in joint.items()}


def cond_independent(space, support, a_mask, b_mask, given_mask, ctx=None):
    """(independent, witness) with the witness (given, a, b) of the first failing cell."""
    a_coords, b_coords = space.mask_coords(a_mask), space.mask_coords(b_mask)
    g_coords = space.mask_coords(given_mask)
    cells, totals = {}, {}
    for i, p in _members(space, support, ctx):
        g = _key_of(space, g_coords, i)
        ab = (_key_of(space, a_coords, i), _key_of(space, b_coords, i))
        row = cells.setdefault(g, {})
        row[ab] = row.get(ab, Fraction(0)) + p
        totals[g] = totals.get(g, Fraction(0)) + p
    if not cells:
        raise ZeroMassContextError("conditioning context has zero mass")
    for g, row in cells.items():
        a_marg, b_marg = {}, {}
        for (a, b), p in row.items():
            a_marg[a] = a_marg.get(a, Fraction(0)) + p
            b_marg[b] = b_marg.get(b, Fraction(0)) + p
        for a, pa in a_marg.items():
            for b, pb in b_marg.items():
                if row.get((a, b), Fraction(0)) * totals[g] != pa * pb:
                    return False, (g, a, b)
    return True, None


def restrict(support, ctx):
    total = sum((p for i, p in support.items() if ctx.member_mask[i]), Fraction(0))
    if total == 0:
        raise ZeroMassContextError("restriction to a zero-mass set")
    return {i: p / total for i, p in support.items() if ctx.member_mask[i]}


def project_dist(space, support, mask):
    coords = space.mask_coords(mask)
    out = {}
    for i, p in support.items():
        k = _key_of(space, coords, i)
        out[k] = out.get(k, Fraction(0)) + p
    return out


def dropping_violation(space, support, mask_y, mask_w, mask_w_clz, ctx):
    """Some mismatch between Q(y | w, clz, ctx) and Q(y | w, ctx), if any.

    The long given key is the first in first-occurrence order; the target
    follows set order, as the library's loop did.
    """
    t_long = conditional(space, support, mask_y, mask_w_clz, ctx)
    t_short = conditional(space, support, mask_y, mask_w, ctx)
    long_coords, short_coords = space.mask_coords(mask_w_clz), space.mask_coords(mask_w)
    positions = [long_coords.index(c) for c in short_coords]
    for g_long, row_long in t_long.items():
        row_short = t_short.get(tuple(g_long[i] for i in positions), {})
        for t in set(row_long) | set(row_short):
            p_long, p_short = row_long.get(t, Fraction(0)), row_short.get(t, Fraction(0))
            if p_long != p_short:
                return g_long, t, p_long, p_short
    return None


def verify_docalculus(m, y, z, w=(), ctx=None, policy_trials=50, prior_trials=3, seed=0):
    """The verifier's loop on the paths above; returns the report's fields as a dict."""
    y, z, w = frozenset(y), frozenset(z), frozenset(w)
    rng = np.random.default_rng(seed)
    rel = precedes(m, w, ctx)
    cert = topologically_separated(m, y, z, w, ctx, relation=rel)
    cl_y = closure(m, y, w, ctx, relation=rel)
    cl_z = closure(m, z, w, ctx, relation=rel)
    context = ctx if ctx is not None else ConfigSet.full(m.space)
    profiles = [m.canonical_profile] if m.canonical_profile is not None else []
    profiles += sample_profiles(m, policy_trials, rng)
    priors = [m.prior] if m.prior is not None else []
    priors += [Prior.sample(m.space, rng) for _ in range(prior_trials)]

    def dec(agents):
        return CoordinateMask(frozenset(), frozenset(agents))

    failures = []
    checks = skipped_unsolvable = skipped_zero = ci_violations = 0
    for pi, profile in enumerate(profiles):
        if not solve(m, profile).solvable:
            skipped_unsolvable += 1
            continue
        for qi, prior in enumerate(priors):
            support = pushforward(m, profile, prior)
            if not _members(m.space, support, context):
                skipped_zero += 1
                continue
            checks += 1
            independent, witness = cond_independent(
                m.space, support, dec(cl_y), dec(cl_z), dec(w), context)
            if cert is None:
                ci_violations += not independent
                continue
            if not independent:
                failures.append(("conditional-independence", pi, qi, witness))
            drop = dropping_violation(m.space, support, dec(y), dec(w), dec(w | cl_z), context)
            if drop is not None:
                failures.append(("conditional-dropping", pi, qi, drop))
    return {
        "y": y, "z": z, "w": w, "separated": cert is not None, "certificate": cert,
        "closure_y": cl_y, "closure_z": cl_z, "checks_run": checks,
        "failures": failures, "skipped_unsolvable": skipped_unsolvable,
        "skipped_zero_mass": skipped_zero, "ci_violations_observed": ci_violations,
    }
