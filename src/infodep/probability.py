"""Exact rational probability on configuration spaces.

A law is a set of integer weights over one common denominator.  The prior
gives each nature point an integer weight over D (`Prior.omega_weights`),
and a solvable profile carries each weight to its configuration.  Masses,
conditionals and independence are decided on integers: cells are summed
with `np.add.at` and equalities are tested by cross-multiplication, with no
float and no tolerance anywhere.  Weights are int64 while D < 2**31, so that
every product of two sums fits, and Python ints beyond that
(`model.weight_dtype`).

The independence and dropping tests each run in two steps: `_cells` numbers
the cells of the support configurations inside the context, and a check
sums one law's weights over them and cross-multiplies, building a witness
only when the check fails.  The cells depend on the support alone, so
`verify_docalculus` builds them once per solved profile and support (the
set of nature points a prior gives positive mass), and per prior only the
sums and the comparison run.

`Fraction` values appear only at the edge: `ExactDist.support`,
`ConditionalTable.rows`, `project_dist`, the witnesses and the decimal
display of the table reproduction (3 places, truncated toward zero,
trailing zeros stripped).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .fieldcore import (
    ConfigSet,
    CoordinateMask,
    FieldcoreError,
    _require_same_space,
    first_occurrence,
)
from .model import Prior, WModel, builtin, weight_dtype
from .precedence import (
    SeparationCertificate,
    closure as topo_closure,
    precedes,
    topologically_separated,
)
from .solvability import (
    PolicyProfile,
    SolutionMap,
    UnsolvableProfileError,
    check_sample_entries,
    sample_profiles,
    solve,
)


class ZeroMassContextError(FieldcoreError):
    pass


@dataclass(frozen=True)
class ExactDist:
    """Exact law over configurations: positive integer weights over `denom`.

    Configuration `index[k]` has mass `weights[k] / denom`; a pushforward
    lists its support in nature-point order.
    """

    space: object
    index: np.ndarray
    weights: np.ndarray
    denom: int

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=weight_dtype(self.denom))
        if not np.all(weights > 0):
            raise FieldcoreError("support weights must be positive")
        if weights.sum() != self.denom:
            raise FieldcoreError("total mass must equal one exactly")
        object.__setattr__(self, "index", np.asarray(self.index, dtype=np.int64))
        object.__setattr__(self, "weights", weights)

    @cached_property
    def support(self) -> dict[int, Fraction]:
        """Configuration index -> exact mass."""
        return {int(i): Fraction(int(p), self.denom)
                for i, p in zip(self.index, self.weights)}

    def __eq__(self, other):
        return (
            isinstance(other, ExactDist)
            and self.space == other.space
            and self.support == other.support
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
    return _law(m.space, sol, *prior.omega_weights(m.space))


def _law(space, sol: SolutionMap, weights: np.ndarray, denom: int) -> ExactDist:
    """Carry nature-point weights through a solvable profile's solution.

    A configuration index is omega + n_omega * u, so no two nature points
    share a configuration and each weight lands on its own.
    """
    keep = weights > 0
    return ExactDist(space, sol.config_index[keep], weights[keep], denom)


# ---------------------------------------------------------------------------
# cells: codes of masked coordinates on the support, summed on integers
# ---------------------------------------------------------------------------

def _inside(d: ExactDist, ctx: ConfigSet | None) -> tuple[np.ndarray, np.ndarray]:
    """Support indices and weights inside the context."""
    if ctx is None:
        return d.index, d.weights
    _require_same_space(d.space, ctx.space)
    keep = ctx.member_mask[d.index]
    return d.index[keep], d.weights[keep]


def _sums(code: np.ndarray, n: int, weights: np.ndarray) -> np.ndarray:
    """Total weight of each of the n codes, in the weights' integer dtype."""
    out = np.zeros(n, dtype=weights.dtype)
    np.add.at(out, code, weights)
    return out


def _keys(space, coords, configs: np.ndarray) -> list[tuple[str, ...]]:
    """Label tuple of the coordinates at each configuration."""
    cols = [np.array(space.coord_space(c).elements, dtype=object)[
        space.coord_values(c)[configs]] for c in coords]
    return list(zip(*cols)) if cols else [()] * len(configs)


@dataclass(frozen=True)
class ConditionalTable:
    """Rows: given-values -> (target-values -> exact conditional mass)."""

    target_coords: tuple
    given_coords: tuple
    rows: Mapping[tuple, Mapping[tuple, Fraction]]
    empty_context: bool = False


def conditional(d: ExactDist, q: CondQuery) -> ConditionalTable:
    """Exact conditional table inside the context; each row sums to one.

    Rows exist only for given-values with positive mass inside the context,
    in first-occurrence order, and so do the targets within a row; a
    zero-mass context yields an empty, flagged table.
    """
    space = d.space
    t_coords = space.mask_coords(q.target)
    g_coords = space.mask_coords(q.given)
    index, weights = _inside(d, q.context)
    g, g_first = first_occurrence(space.mask_codes(q.given, index)[0])
    t_code, t_range = space.mask_codes(q.target, index)
    cell, cell_first = first_occurrence(g * t_range + t_code)
    joint = _sums(cell, len(cell_first), weights)
    total = _sums(g, len(g_first), weights)
    configs = index[cell_first]
    rows: dict[tuple, dict[tuple, Fraction]] = {}
    for g_key, t_key, j, k in zip(_keys(space, g_coords, configs),
                                  _keys(space, t_coords, configs), joint, g[cell_first]):
        rows.setdefault(g_key, {})[t_key] = Fraction(int(j), int(total[k]))
    return ConditionalTable(t_coords, g_coords, rows, empty_context=not rows)


@dataclass(frozen=True)
class CIResult:
    independent: bool
    witness: tuple | None = None  # (given-key, a-key, b-key) on failure


@dataclass(frozen=True)
class _Cells:
    """Cells of (k), (k, a), (k, b) and (k, a, b) on support configurations.

    Each code numbers its cells in first-occurrence order along `index`, and
    `*_first` holds the position where each cell first occurs; `kab_k`,
    `kab_ka` and `kab_kb` name the (k), (k, a) and (k, b) cell of each
    (k, a, b) cell.  Nothing here depends on the weights, so one build
    serves every law with the same support.
    """

    index: np.ndarray
    k: np.ndarray
    k_first: np.ndarray
    ka: np.ndarray
    ka_first: np.ndarray
    kb: np.ndarray
    kb_first: np.ndarray
    kab: np.ndarray
    kab_k: np.ndarray
    kab_ka: np.ndarray
    kab_kb: np.ndarray


def _cells(space, index: np.ndarray, k_mask: CoordinateMask, a_mask: CoordinateMask,
           b_mask: CoordinateMask) -> _Cells:
    k, k_first = first_occurrence(space.mask_codes(k_mask, index)[0])
    a_code, a_range = space.mask_codes(a_mask, index)
    b_code, b_range = space.mask_codes(b_mask, index)
    ka, ka_first = first_occurrence(k * a_range + a_code)
    kb, kb_first = first_occurrence(k * b_range + b_code)
    kab, kab_first = first_occurrence(ka * len(kb_first) + kb)
    return _Cells(index, k, k_first, ka, ka_first, kb, kb_first, kab,
                  k[kab_first], ka[kab_first], kb[kab_first])


def _balance(c: _Cells, weights: np.ndarray):
    """One law's sums over the cells, and per (k, a, b) cell whether
    p(k, a, b) * p(k) == p(k, a) * p(k, b).

    Returns (ok, p(k), p(k, a), p(k, b), p(k, a, b)).
    """
    total = _sums(c.k, len(c.k_first), weights)
    pa = _sums(c.ka, len(c.ka_first), weights)
    pb = _sums(c.kb, len(c.kb_first), weights)
    joint = _sums(c.kab, len(c.kab_k), weights)
    return joint * total[c.kab_k] == pa[c.kab_ka] * pb[c.kab_kb], total, pa, pb, joint


def cond_independent(
    d: ExactDist,
    a_mask: CoordinateMask,
    b_mask: CoordinateMask,
    given_mask: CoordinateMask,
    ctx: ConfigSet | None = None,
) -> CIResult:
    """Exact test: joint conditional equals the product of the marginals.

    For every given-value g with mass in the context and every a and b seen
    with g, joint(g, a, b) * total(g) == p(g, a) * p(g, b) on integers.  The
    witness is the first failing cell with g in first-occurrence order, then
    a and b in the first-occurrence order of (g, a) and (g, b).
    """
    index, weights = _inside(d, ctx)
    if not len(index):
        raise ZeroMassContextError("conditioning context has zero mass")
    return _ci_check(d.space, _cells(d.space, index, given_mask, a_mask, b_mask), weights,
                     a_mask, b_mask, given_mask)


def _ci_check(space, c: _Cells, weights, a_mask, b_mask, given_mask) -> CIResult:
    ok = _balance(c, weights)[0]
    # An (a, b) pair never seen with g has joint 0 < p(g, a) * p(g, b).  If
    # every seen cell of row (g, a) passed, the row's p(g, b) would sum to
    # total(g), so a row with an unseen cell also has a failing seen one.
    if ok.all():
        return CIResult(True)
    bad_g = c.kab_k[~ok].min()
    rows = np.flatnonzero(c.k[c.ka_first] == bad_g)
    cols = np.flatnonzero(c.k[c.kb_first] == bad_g)
    # unseen cells stay False
    grid = np.zeros((len(rows), len(cols)), dtype=bool)
    here = c.kab_k == bad_g
    grid[np.searchsorted(rows, c.kab_ka[here]), np.searchsorted(cols, c.kab_kb[here])] = ok[here]
    r, col = np.argwhere(~grid)[0]
    (g_key,) = _keys(space, space.mask_coords(given_mask), c.index[c.k_first[[bad_g]]])
    (a_key,) = _keys(space, space.mask_coords(a_mask), c.index[c.ka_first[[rows[r]]]])
    (b_key,) = _keys(space, space.mask_coords(b_mask), c.index[c.kb_first[[cols[col]]]])
    return CIResult(False, (g_key, a_key, b_key))


def _decision_mask(agents: Iterable[str]) -> CoordinateMask:
    return CoordinateMask(frozenset(), frozenset(agents))


def restrict(d: ExactDist, ctx: ConfigSet) -> ExactDist:
    """Exact renormalized restriction of the law to a configuration set."""
    index, weights = _inside(d, ctx)
    total = int(weights.sum())
    if total == 0:
        raise ZeroMassContextError("restriction to a zero-mass set")
    return ExactDist(d.space, index, weights, total)


def project_dist(d: ExactDist, mask: CoordinateMask) -> dict[tuple, Fraction]:
    """Marginal law of the masked coordinates, in first-occurrence order."""
    coords = d.space.mask_coords(mask)
    code, first = first_occurrence(d.space.mask_codes(mask, d.index)[0])
    sums = _sums(code, len(first), d.weights)
    return {k: Fraction(int(p), d.denom)
            for k, p in zip(_keys(d.space, coords, d.index[first]), sums)}


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
    check_sample_entries(prior_trials * m.space.n_omega, f"{prior_trials} sampled priors")
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

    def support_cells(sol: SolutionMap, keep: np.ndarray):
        """Nature points of the support inside the context, and the cells of
        both tests on their configurations; None for a zero-mass context."""
        at = np.flatnonzero(keep)
        index = sol.config_index[at]
        inside = context.member_mask[index]
        if not inside.any():
            return None
        index = index[inside]
        ci = _cells(m.space, index, mask_w, mask_cl_y, mask_cl_z)
        drop = _cells(m.space, index, mask_w, mask_w_clz, mask_y) if cert is not None else None
        return at[inside], ci, drop

    laws = [prior.omega_weights(m.space)[0] for prior in priors]
    supports = [weights > 0 for weights in laws]
    for pi, profile in enumerate(profiles):
        sol = solve(m, profile)
        if not sol.solvable:
            skipped_unsolvable += 1
            continue
        built: dict[bytes, tuple | None] = {}
        for qi, (weights, keep) in enumerate(zip(laws, supports)):
            key = keep.tobytes()
            if key not in built:
                built[key] = support_cells(sol, keep)
            if built[key] is None:
                skipped_zero += 1
                continue
            at, ci_cells, drop_cells = built[key]
            inside = weights[at]
            ci = _ci_check(m.space, ci_cells, inside, mask_cl_y, mask_cl_z, mask_w)
            checks += 1
            if cert is None:
                ci_violations += not ci.independent
                continue
            if not ci.independent:
                failures.append(TrialFailure("conditional-independence", pi, qi, ci.witness))
            drop = _dropping_check(m.space, drop_cells, inside, mask_y, mask_w_clz)
            if drop is not None:
                failures.append(TrialFailure("conditional-dropping", pi, qi, drop))
    return DoCalculusReport(
        y, z, w, cert is not None, cert, cl_y, cl_z,
        checks, tuple(failures), skipped_unsolvable, skipped_zero, ci_violations,
    )


def _dropping_check(space, c: _Cells, weights, mask_y, mask_w_clz):
    """First exact mismatch of Q(y | w, clz) against Q(y | w), if any, as (long given
    key, target key, long mass, short mass): long keys (w, clz) in first-occurrence
    order, and the targets of one in the order of their mixed-radix code."""
    # k is the short given key w, ka the long one (w, clz) and kb (w, y)
    ok, t_short, t_long, j_short, j_long = _balance(c, weights)
    # A target of the short row missing from a long row has long mass 0.
    # Both rows sum to one, so a long row that misses a target also has a
    # failing target it does see.
    if ok.all():
        return None
    bad = c.kab_ka[~ok].min()
    short = c.k[c.ka_first[bad]]
    row = np.flatnonzero(c.k[c.kb_first] == short)
    row = row[~np.isin(row, c.kab_kb[(c.kab_ka == bad) & ok])]
    col = row[np.argmin(space.mask_codes(mask_y, c.index[c.kb_first[row]])[0])]
    p_long = Fraction(int(j_long[(c.kab_ka == bad) & (c.kab_kb == col)].sum()), int(t_long[bad]))
    p_short = Fraction(int(j_short[col]), int(t_short[short]))
    (g_key,) = _keys(space, space.mask_coords(mask_w_clz), c.index[c.ka_first[[bad]]])
    (t_key,) = _keys(space, space.mask_coords(mask_y), c.index[c.kb_first[[col]]])
    return (g_key, t_key, p_long, p_short)


# ---------------------------------------------------------------------------
# table reproduction
# ---------------------------------------------------------------------------

def display_3dec(value: Fraction) -> str:
    """Truncate toward zero at three decimals, strip trailing zeros."""
    if value < 0:
        raise FieldcoreError("probabilities are nonnegative")
    scaled = (value.numerator * 1000) // value.denominator
    return f"{scaled // 1000}.{scaled % 1000:03d}".rstrip("0").rstrip(".")


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


def _table1_rows(dist: ExactDist, given_agents, expected) -> tuple[TableRow, ...]:
    """One row per published key: the exact P(X4 = 1 | key, X3) at X3 = 0 and 1,
    read off one conditional table of X4 given the agents (X3 the last)."""
    table = conditional(dist, CondQuery(_decision_mask({"X4"}), _decision_mask(given_agents)))
    rows = []
    for key in sorted(expected):
        exact = tuple(table.rows.get(key + (x3,), {}).get(("1",), Fraction(0))
                      for x3 in ("0", "1"))
        rows.append(TableRow(key, exact, tuple(map(display_3dec, exact)), expected[key]))
    return tuple(rows)


def reproduce_table1() -> Table1Result:
    """Recompute both conditional tables of the cyclic xor example.

    Passes when every entry, truncated to three decimals, matches the
    published value; the two columns of the first table must also agree as
    exact rationals, while the (0,1) row of the second must not.
    """
    m = builtin("witsenhausen-xor")
    dist = pushforward(m, m.canonical_profile)
    rows_a = _table1_rows(dist, ("X0", "X1", "X2", "X3"), PAPER_TABLE_1A)
    rows_b = _table1_rows(dist, ("X0", "X1", "X3"), PAPER_TABLE_1B)
    (row_01,) = (r for r in rows_b if r.key == ("0", "1"))
    return Table1Result(rows_a, rows_b, all(r.exact[0] == r.exact[1] for r in rows_a),
                        row_01.exact[0] != row_01.exact[1])
