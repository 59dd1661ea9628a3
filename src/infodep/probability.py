"""Exact rational probability on configuration spaces.

Every mass is a `fractions.Fraction`; conditionals, independence tests and
the theorem verifiers below therefore decide equalities exactly, with no
tolerances.  Decimal display (3 places, truncated toward zero, trailing
zeros stripped) happens only at the table-reproduction boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .fieldcore import (
    ConfigSet,
    CoordinateMask,
    FieldcoreError,
)
from .model import Prior, WModel, builtin
from .precedence import (
    SeparationCertificate,
    closure as topo_closure,
    precedes,
    topologically_separated,
)
from .solvability import (
    PolicyProfile,
    UnsolvableProfileError,
    sample_profiles,
    solve,
)


class ZeroMassContextError(FieldcoreError):
    pass


@dataclass(frozen=True)
class ExactDist:
    """Rational probability mass over configurations (support only)."""

    space: object
    support: Mapping[int, Fraction]

    def __post_init__(self):
        clean = {int(i): Fraction(p) for i, p in self.support.items() if p != 0}
        if any(p < 0 for p in clean.values()):
            raise FieldcoreError("negative mass")
        if sum(clean.values(), Fraction(0)) != 1:
            raise FieldcoreError("total mass must equal one exactly")
        object.__setattr__(self, "support", clean)

    def mass_in(self, ctx: ConfigSet) -> Fraction:
        return sum(
            (p for i, p in self.support.items() if ctx.member_mask[i]), Fraction(0)
        )


@dataclass(frozen=True)
class CondQuery:
    target: CoordinateMask
    given: CoordinateMask
    context: ConfigSet | None = None


def pushforward(m: WModel, profile: PolicyProfile, prior: Prior | None = None) -> ExactDist:
    """Law of the closed-loop solution under the product prior on nature."""
    prior = prior if prior is not None else m.prior
    if prior is None:
        raise FieldcoreError("no prior given and the model carries none")
    sol = solve(m, profile)
    if not sol.solvable:
        bad = int(np.flatnonzero(sol.counts != 1)[0])
        raise UnsolvableProfileError(
            f"profile is not solvable: nature point {m.space.omega_labels_at(bad)}"
            f" admits {int(sol.counts[bad])} solutions"
        )
    support: dict[int, Fraction] = {}
    for om in range(m.space.n_omega):
        mass = prior.omega_mass(m.space, om)
        if mass == 0:
            continue
        i = int(sol.config_index[om])
        support[i] = support.get(i, Fraction(0)) + mass
    return ExactDist(m.space, support)


def _key_of(space, coords, index: int) -> tuple[str, ...]:
    out = []
    for coord in coords:
        sp = space.coord_space(coord)
        out.append(sp.elements[int(space.coord_values(coord)[index])])
    return tuple(out)


@dataclass(frozen=True)
class ConditionalTable:
    """Rows: given-values -> (target-values -> exact conditional mass)."""

    target_coords: tuple
    given_coords: tuple
    rows: Mapping[tuple, Mapping[tuple, Fraction]]
    empty_context: bool = False

    def row(self, given_key: tuple) -> Mapping[tuple, Fraction]:
        return self.rows[given_key]

    def value(self, given_key: tuple, target_key: tuple) -> Fraction:
        return self.rows.get(given_key, {}).get(target_key, Fraction(0))


def conditional(d: ExactDist, q: CondQuery) -> ConditionalTable:
    """Exact conditional table inside the context; each row sums to one.

    Rows exist only for given-values with positive mass inside the context;
    a zero-mass context yields an empty, flagged table.
    """
    space = d.space
    t_coords = space.mask_coords(q.target)
    g_coords = space.mask_coords(q.given)
    ctx = q.context if q.context is not None else ConfigSet.full(space)
    joint: dict[tuple, dict[tuple, Fraction]] = {}
    totals: dict[tuple, Fraction] = {}
    for i, p in d.support.items():
        if not ctx.member_mask[i]:
            continue
        g = _key_of(space, g_coords, i)
        t = _key_of(space, t_coords, i)
        row = joint.setdefault(g, {})
        row[t] = row.get(t, Fraction(0)) + p
        totals[g] = totals.get(g, Fraction(0)) + p
    rows = {
        g: {t: p / totals[g] for t, p in row.items()}
        for g, row in joint.items()
    }
    return ConditionalTable(t_coords, g_coords, rows, empty_context=not rows)


@dataclass(frozen=True)
class CIResult:
    independent: bool
    witness: tuple | None = None  # (given-key, a-key, b-key) on failure


def cond_independent(
    d: ExactDist,
    a_mask: CoordinateMask,
    b_mask: CoordinateMask,
    given_mask: CoordinateMask,
    ctx: ConfigSet | None = None,
) -> CIResult:
    """Exact test: joint conditional equals the product of the marginals."""
    space = d.space
    ctx = ctx if ctx is not None else ConfigSet.full(space)
    a_coords = space.mask_coords(a_mask)
    b_coords = space.mask_coords(b_mask)
    g_coords = space.mask_coords(given_mask)
    cells: dict[tuple, dict[tuple[tuple, tuple], Fraction]] = {}
    totals: dict[tuple, Fraction] = {}
    for i, p in d.support.items():
        if not ctx.member_mask[i]:
            continue
        g = _key_of(space, g_coords, i)
        ab = (_key_of(space, a_coords, i), _key_of(space, b_coords, i))
        row = cells.setdefault(g, {})
        row[ab] = row.get(ab, Fraction(0)) + p
        totals[g] = totals.get(g, Fraction(0)) + p
    if not cells:
        raise ZeroMassContextError("conditioning context has zero mass")
    for g, row in cells.items():
        tot = totals[g]
        a_marg: dict[tuple, Fraction] = {}
        b_marg: dict[tuple, Fraction] = {}
        for (a, b), p in row.items():
            a_marg[a] = a_marg.get(a, Fraction(0)) + p
            b_marg[b] = b_marg.get(b, Fraction(0)) + p
        for a, pa in a_marg.items():
            for b, pb in b_marg.items():
                joint = row.get((a, b), Fraction(0))
                if joint * tot != pa * pb:
                    return CIResult(False, (g, a, b))
    return CIResult(True)


def _decision_mask(agents: Iterable[str]) -> CoordinateMask:
    return CoordinateMask(frozenset(), frozenset(agents))


def restrict(d: ExactDist, ctx: ConfigSet) -> ExactDist:
    """Exact renormalized restriction of the law to a configuration set."""
    total = d.mass_in(ctx)
    if total == 0:
        raise ZeroMassContextError("restriction to a zero-mass set")
    return ExactDist(d.space, {
        i: p / total for i, p in d.support.items() if ctx.member_mask[i]
    })


def project_dist(d: ExactDist, mask: CoordinateMask) -> dict[tuple, Fraction]:
    """Marginal law of the masked coordinates."""
    coords = d.space.mask_coords(mask)
    out: dict[tuple, Fraction] = {}
    for i, p in d.support.items():
        k = _key_of(d.space, coords, i)
        out[k] = out.get(k, Fraction(0)) + p
    return out


# ---------------------------------------------------------------------------
# theorem verifiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialFailure:
    kind: str  # "conditional-independence" | "conditional-dropping"
    profile_index: int
    prior_index: int
    detail: tuple


@dataclass(frozen=True)
class DoCalculusReport:
    y: frozenset[str]
    z: frozenset[str]
    w: frozenset[str]
    separated: bool
    certificate: SeparationCertificate | None
    closure_y: frozenset[str]
    closure_z: frozenset[str]
    checks_run: int
    failures: tuple[TrialFailure, ...]
    skipped_unsolvable: int
    skipped_zero_mass: int
    ci_violations_observed: int  # only meaningful when not separated

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_docalculus(
    m: WModel,
    y: Iterable[str],
    z: Iterable[str],
    w: Iterable[str] = (),
    ctx: ConfigSet | None = None,
    policy_trials: int = 50,
    prior_trials: int = 3,
    seed=0,
) -> DoCalculusReport:
    """Exercise the one-rule do-calculus by exact computation.

    When (y, z) are topologically separated given (w, ctx), every sampled
    solvable profile and sampled full-support prior must satisfy, exactly:
    the conditional independence of the closure blocks given the w decisions
    inside ctx, and the dropping of the z-closure decisions from the
    conditioning of y.  When not separated, the same computations run and
    observed independence violations are tallied as corroboration.
    """
    y, z, w = frozenset(y), frozenset(z), frozenset(w)
    rng = np.random.default_rng(seed)
    rel = precedes(m, w, ctx)
    cert = topologically_separated(m, y, z, w, ctx, relation=rel)
    cl_y = topo_closure(m, y, w, ctx, relation=rel)
    cl_z = topo_closure(m, z, w, ctx, relation=rel)
    context = ctx if ctx is not None else ConfigSet.full(m.space)

    profiles: list[PolicyProfile] = []
    if m.canonical_profile is not None:
        profiles.append(m.canonical_profile)
    profiles.extend(sample_profiles(m, policy_trials, rng))
    priors: list[Prior] = [m.prior] if m.prior is not None else []
    priors.extend(Prior.sample(m.space, rng) for _ in range(prior_trials))
    if not priors:
        raise FieldcoreError("model has no prior and prior_trials is zero")

    failures: list[TrialFailure] = []
    checks = skipped_unsolvable = skipped_zero = ci_violations = 0
    mask_y = _decision_mask(y)
    mask_w = _decision_mask(w)
    mask_cl_y = _decision_mask(cl_y)
    mask_cl_z = _decision_mask(cl_z)
    mask_w_clz = _decision_mask(w | cl_z)

    for pi, profile in enumerate(profiles):
        if not solve(m, profile).solvable:
            skipped_unsolvable += 1
            continue
        for qi, prior in enumerate(priors):
            dist = pushforward(m, profile, prior)
            if dist.mass_in(context) == 0:
                skipped_zero += 1
                continue
            ci = cond_independent(dist, mask_cl_y, mask_cl_z, mask_w, context)
            if cert is None:
                checks += 1
                if not ci.independent:
                    ci_violations += 1
                continue
            checks += 1
            if not ci.independent:
                failures.append(TrialFailure("conditional-independence", pi, qi, ci.witness))
            drop = _dropping_violation(dist, mask_y, mask_w, mask_w_clz, context)
            if drop is not None:
                failures.append(TrialFailure("conditional-dropping", pi, qi, drop))
    return DoCalculusReport(
        y, z, w, cert is not None, cert, cl_y, cl_z,
        checks, tuple(failures), skipped_unsolvable, skipped_zero, ci_violations,
    )


def _dropping_violation(dist, mask_y, mask_w, mask_w_clz, context):
    """First exact mismatch between Q(y | w, clz, ctx) and Q(y | w, ctx), if any."""
    t_long = conditional(dist, CondQuery(mask_y, mask_w_clz, context))
    t_short = conditional(dist, CondQuery(mask_y, mask_w, context))
    positions = [t_long.given_coords.index(c) for c in t_short.given_coords]
    for g_long, row_long in t_long.rows.items():
        g_short = tuple(g_long[i] for i in positions)
        row_short = t_short.rows.get(g_short, {})
        for t in set(row_long) | set(row_short):
            if row_long.get(t, Fraction(0)) != row_short.get(t, Fraction(0)):
                return (g_long, t, row_long.get(t, Fraction(0)), row_short.get(t, Fraction(0)))
    return None


def verify_rule1_tikka(
    m: WModel,
    y: Iterable[str],
    z: Iterable[str],
    x: Iterable[str],
    pinned: Mapping[str, str],
    policy_trials: int = 50,
    prior_trials: int = 3,
    seed=0,
) -> DoCalculusReport:
    """Single-rule reading of context-specific conditioning removal.

    Pins the decisions of the context agents to the given labels, takes the
    pinned set as the conditioning context and x as w, then defers to
    `verify_docalculus`.
    """
    y, z, x = frozenset(y), frozenset(z), frozenset(x)
    x_tilde = frozenset(pinned)
    sets = {"Y": y, "Z": z, "X": x, "pinned": x_tilde}
    names = list(sets)
    for i, s1 in enumerate(names):
        for s2 in names[i + 1:]:
            if sets[s1] & sets[s2]:
                raise FieldcoreError(f"{s1} and {s2} must be disjoint")
    ctx = ConfigSet.from_pins(m.space, decision=dict(pinned))
    return verify_docalculus(
        m, y, z, x, ctx,
        policy_trials=policy_trials, prior_trials=prior_trials, seed=seed,
    )


# ---------------------------------------------------------------------------
# table reproduction
# ---------------------------------------------------------------------------

def display_3dec(value: Fraction) -> str:
    """Truncate toward zero at three decimals, strip trailing zeros."""
    if value < 0:
        raise FieldcoreError("probabilities are nonnegative")
    scaled = (value.numerator * 1000) // value.denominator
    text = f"{scaled // 1000}.{scaled % 1000:03d}".rstrip("0").rstrip(".")
    return text


PAPER_TABLE_1A: dict[tuple[str, str, str], tuple[str, str]] = {
    ("0", "0", "0"): ("0.012", "0.012"),
    ("0", "0", "1"): ("0.5", "0.5"),
    ("0", "1", "0"): ("0.5", "0.5"),
    ("0", "1", "1"): ("0.012", "0.012"),
    ("1", "0", "0"): ("0.012", "0.012"),
    ("1", "0", "1"): ("0.012", "0.012"),
    ("1", "1", "0"): ("0.5", "0.5"),
    ("1", "1", "1"): ("0.5", "0.5"),
}

PAPER_TABLE_1B: dict[tuple[str, str], tuple[str, str]] = {
    ("0", "0"): ("0.023", "0.023"),
    ("0", "1"): ("0.1", "0.474"),
    ("1", "0"): ("0.012", "0.012"),
    ("1", "1"): ("0.5", "0.5"),
}


@dataclass(frozen=True)
class TableRow:
    key: tuple[str, ...]
    exact: tuple[Fraction, Fraction]  # columns X3=0, X3=1
    shown: tuple[str, str]
    expected: tuple[str, str]

    @property
    def matches(self) -> bool:
        return self.shown == self.expected


@dataclass(frozen=True)
class Table1Result:
    rows_a: tuple[TableRow, ...]
    rows_b: tuple[TableRow, ...]
    columns_a_exactly_equal: bool
    row_b_01_differs: bool

    @property
    def passed(self) -> bool:
        return (
            all(r.matches for r in self.rows_a)
            and all(r.matches for r in self.rows_b)
            and self.columns_a_exactly_equal
            and self.row_b_01_differs
        )


def _x4_given(dist: ExactDist, space, given_agents, key) -> dict[str, Fraction]:
    table = conditional(dist, CondQuery(
        _decision_mask({"X4"}), _decision_mask(given_agents)
    ))
    return {t[0]: p for t, p in table.rows.get(key, {}).items()}


def reproduce_table1(m: WModel | None = None) -> Table1Result:
    """Recompute both conditional tables of the cyclic xor example.

    Passes when every entry, truncated to three decimals, matches the
    published value; the two columns of the first table must also agree as
    exact rationals, while the (0,1) row of the second must not.
    """
    m = m if m is not None else builtin("witsenhausen-xor")
    dist = pushforward(m, m.canonical_profile)
    rows_a = []
    equal_a = True
    for key in sorted(PAPER_TABLE_1A):
        vals = []
        for x3 in ("0", "1"):
            row = _x4_given(dist, m.space, ("X0", "X1", "X2", "X3"), key + (x3,))
            vals.append(row.get("1", Fraction(0)))
        equal_a &= vals[0] == vals[1]
        rows_a.append(TableRow(
            key, (vals[0], vals[1]),
            (display_3dec(vals[0]), display_3dec(vals[1])),
            PAPER_TABLE_1A[key],
        ))
    rows_b = []
    differs_01 = False
    for key in sorted(PAPER_TABLE_1B):
        vals = []
        for x3 in ("0", "1"):
            row = _x4_given(dist, m.space, ("X0", "X1", "X3"), key + (x3,))
            vals.append(row.get("1", Fraction(0)))
        if key == ("0", "1"):
            differs_01 = vals[0] != vals[1]
        rows_b.append(TableRow(
            key, (vals[0], vals[1]),
            (display_3dec(vals[0]), display_3dec(vals[1])),
            PAPER_TABLE_1B[key],
        ))
    return Table1Result(tuple(rows_a), tuple(rows_b), equal_a, differs_01)
