"""Conditional precedence relations, topological closure, and separation.

The precedence of agent b over agent a, conditioned on a context pair
(W, H), holds when a's information traced on H still depends on b's
decision even after every decision coordinate outside {b} plus W is made
visible.  Membership in the defining intersection is per-element, so the
relation needs no enumeration of the 2^|A| candidate sets: a row b in W is
empty, and a row b outside W is one reduction along b's decision axis of
the configuration space's axis view (`ConfigSpace.axis_sizes`).
`precedes_oracle` keeps the literal enumeration as an independent check.

The closure of B, the least fixpoint of S -> S u P(S), is the foreset of B
under the reflexive-transitive closure R*, which one Warshall pass builds
once per relation.  A separation query needs no search over the 2^|W|
splittings of W: one absorption pass sends to Y's side exactly the members
of W that every separating splitting puts there.  A context conditions on
the decisions it fixes, so separation and the factorization check both
read those agents as members of W (`_conditioned`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .fieldcore import (
    ConfigSet,
    CoordinateMask,
    FieldcoreError,
    _require_same_space,
    field_subset_witness,
)

if TYPE_CHECKING:  # pragma: no cover
    from .model import WModel

ORACLE_MAX_AGENTS = 12


@dataclass(frozen=True)
class PrecedenceRelation:
    """Boolean relation on agents; entry (b, a) true means b precedes a."""

    agents: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        # a copy, so the caller's array stays writeable and cannot change us
        m = np.array(self.matrix, dtype=bool, order="C")
        n = len(self.agents)
        if m.shape != (n, n):
            raise FieldcoreError("relation matrix does not match the agent list")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def _idx(self, agent: str) -> int:
        return self.agents.index(agent)

    def holds(self, b: str, a: str) -> bool:
        return bool(self.matrix[self._idx(b), self._idx(a)])

    def predecessors(self, a: str) -> frozenset[str]:
        col = self.matrix[:, self._idx(a)]
        return frozenset(b for b, bit in zip(self.agents, col) if bit)

    def foreset(self, agents: Iterable[str]) -> frozenset[str]:
        """P(B): all agents preceding some member of B."""
        cols = [self._idx(a) for a in agents]
        if not cols:
            return frozenset()
        rows = self.matrix[:, cols].any(axis=1)
        return frozenset(b for b, bit in zip(self.agents, rows) if bit)

    def diagonal_restrict(self, keep: Iterable[str]) -> "PrecedenceRelation":
        """Delta_keep composed with self: clear every row outside `keep`."""
        keep = set(keep)
        rows = np.fromiter((b in keep for b in self.agents), bool, len(self.agents))
        return PrecedenceRelation(self.agents, self.matrix & rows[:, None])

    @cached_property
    def reflexive_transitive_closure(self) -> "PrecedenceRelation":
        """R*: one Warshall pass over R | I, computed once per relation, so
        `closure` and separation queries share it."""
        m = self.matrix | np.eye(len(self.agents), dtype=bool)
        for k in range(len(self.agents)):
            m |= np.outer(m[:, k], m[k, :])
        return PrecedenceRelation(self.agents, m)

    def __eq__(self, other):
        return (
            isinstance(other, PrecedenceRelation)
            and self.agents == other.agents
            and np.array_equal(self.matrix, other.matrix)
        )

    def __hash__(self):
        return hash((self.agents, self.matrix.tobytes()))


@dataclass(frozen=True)
class Splitting:
    w_y: frozenset[str]
    w_z: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "w_y", frozenset(self.w_y))
        object.__setattr__(self, "w_z", frozenset(self.w_z))
        if self.w_y & self.w_z:
            raise FieldcoreError("splitting parts must be disjoint")


@dataclass(frozen=True)
class SeparationCertificate:
    splitting: Splitting
    closure_y: frozenset[str]
    closure_z: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "closure_y", frozenset(self.closure_y))
        object.__setattr__(self, "closure_z", frozenset(self.closure_z))
        if self.closure_y & self.closure_z:
            raise FieldcoreError("certificate closures must be disjoint")


def _as_agent_set(m: "WModel", agents: Iterable[str], what: str) -> frozenset[str]:
    s = frozenset(agents)
    unknown = s - set(m.agents)
    if unknown:
        raise FieldcoreError(f"{what} references unknown agents: {sorted(unknown)}")
    return s


def _context(m: "WModel", ctx: ConfigSet | None) -> ConfigSet:
    if ctx is None:
        return ConfigSet.full(m.space)
    _require_same_space(m.space, ctx.space)
    if ctx.size == 0:
        raise FieldcoreError("context set is empty")
    return ctx


def _conditioned(m: "WModel", y: frozenset[str], z: frozenset[str], w: frozenset[str],
                 ctx: ConfigSet | None) -> frozenset[str]:
    """W and every agent outside Y u Z whose decision takes one value on all
    of ctx, out of at least two: conditioning on a context conditions on the
    decisions it fixes.  Each such row of `precedes` is already empty, so
    the relation is the same; what changes is that the splitting must place
    the agent, so a fixed common descendant of Y and Z joins a closure.
    """
    if ctx is None:
        return w
    member = _context(m, ctx).member_mask.reshape(m.space.axis_sizes, order="F")
    axes = range(member.ndim)
    return w.union(
        a for i, a in enumerate(m.agents, 1)
        if a not in y | z and member.shape[i] > 1
        and np.count_nonzero(member.any(axis=tuple(k for k in axes if k != i))) == 1
    )


def precedes(m: "WModel", w: Iterable[str] = (), ctx: ConfigSet | None = None) -> PrecedenceRelation:
    """Precedence conditioned on (w, ctx), one axis reduction per entry.

    Entry (b, a) is set when a's field, traced on ctx, is NOT contained in
    the field generated by all nature plus the decisions of (A \\ {b}) u w.
    For b in w that is the whole configuration field, so row b is empty.
    For b outside w its atoms are the lines along b's decision axis, and
    (b, a) holds when on some line the largest atom of a among the members
    of ctx exceeds the smallest (non-members masked to -1 and atom_count).
    """
    w = _as_agent_set(m, w, "W")
    ctx = _context(m, ctx)
    agents = m.agents
    sizes = m.space.axis_sizes
    axes = [1 + i for i, b in enumerate(agents) if b not in w]
    member = None if ctx.is_full else ctx.member_mask.reshape(sizes, order="F")
    matrix = np.zeros((len(agents), len(agents)), dtype=bool)
    for j, a in enumerate(agents):
        p = m.info[a].partition
        hi = lo = p.atom_index.reshape(sizes, order="F")
        if member is not None:
            hi, lo = np.where(member, hi, -1), np.where(member, lo, p.atom_count)
        for ax in axes:
            matrix[ax - 1, j] = (hi.max(axis=ax) > lo.min(axis=ax)).any()
    return PrecedenceRelation(tuple(agents), matrix)


def precedes_oracle(
    m: "WModel",
    w: Iterable[str] = (),
    ctx: ConfigSet | None = None,
) -> PrecedenceRelation:
    """Literal intersection over all 2^|A| candidate sets B."""
    w = _as_agent_set(m, w, "W")
    ctx = _context(m, ctx)
    agents = list(m.agents)
    n = len(agents)
    if n > ORACLE_MAX_AGENTS:
        raise FieldcoreError(f"oracle capped at {ORACLE_MAX_AGENTS} agents (got {n})")
    all_nature = frozenset(agents)
    matrix = np.zeros((n, n), dtype=bool)
    for j, a in enumerate(agents):
        inter = set(agents)
        for bits in range(1 << n):
            b_set = frozenset(agents[k] for k in range(n) if bits >> k & 1)
            mask = CoordinateMask(all_nature, b_set | w)
            if field_subset_witness(m.info[a].partition, mask, ctx) is None:
                inter &= b_set
        for i, b in enumerate(agents):
            matrix[i, j] = b in inter
    return PrecedenceRelation(tuple(agents), matrix)


def closure(
    m: "WModel",
    b: Iterable[str],
    w: Iterable[str] = (),
    ctx: ConfigSet | None = None,
    relation: PrecedenceRelation | None = None,
) -> frozenset[str]:
    """Least superset of b closed under conditional predecessors.

    That is the foreset of b under the reflexive-transitive closure of the
    relation.
    """
    b = _as_agent_set(m, b, "B")
    rel = relation if relation is not None else precedes(m, w, ctx)
    return rel.reflexive_transitive_closure.foreset(b)


def is_closed(
    m: "WModel",
    b: Iterable[str],
    w: Iterable[str] = (),
    ctx: ConfigSet | None = None,
    relation: PrecedenceRelation | None = None,
) -> bool:
    b = _as_agent_set(m, b, "B")
    rel = relation if relation is not None else precedes(m, w, ctx)
    return rel.foreset(b) <= b


def topologically_separated(
    m: "WModel",
    y: Iterable[str],
    z: Iterable[str],
    w: Iterable[str] = (),
    ctx: ConfigSet | None = None,
    relation: PrecedenceRelation | None = None,
) -> SeparationCertificate | None:
    """Split w into w_y and w_z so that y u w_y and z u w_z have disjoint closures.

    A member of w whose closure meets the closure of y must sit on y's side
    of any separating splitting, so one pass absorbs those members into w_y
    until no more join, and the rest form w_z.  That splitting separates
    whenever any does, and its w_y is a subset of every separating w_y: it
    is the first success of the splittings in increasing binary order over
    w sorted by the canonical agent order (bit k sends the k-th element to
    the y side).  Returns None when its closures meet.  W is first extended
    by the decisions that ctx fixes (`_conditioned`), so the splitting may
    list them.
    """
    y = _as_agent_set(m, y, "Y")
    z = _as_agent_set(m, z, "Z")
    w = _as_agent_set(m, w, "W")
    if (y & z) or (y & w) or (z & w):
        raise FieldcoreError("Y, Z, W must be pairwise disjoint")
    w = _conditioned(m, y, z, w, ctx)
    rel = relation if relation is not None else precedes(m, w, ctx)
    # The closure of B is its foreset under R*, so one Warshall pass serves
    # every foreset below.
    rstar = rel.reflexive_transitive_closure
    fore = {a: rstar.foreset((a,)) for a in w}
    w_y, cl_y = frozenset(), rstar.foreset(y)
    while joined := frozenset(a for a in w - w_y if fore[a] & cl_y):
        w_y |= joined
        cl_y = cl_y.union(*(fore[a] for a in joined))
    w_z = w - w_y
    cl_z = rstar.foreset(z | w_z)
    if cl_y & cl_z:
        return None
    return SeparationCertificate(Splitting(w_y, w_z), cl_y, cl_z)
