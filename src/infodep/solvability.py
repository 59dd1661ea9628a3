"""Policies, closed-loop solution maps, solvability and causality checks.

A policy is a table from the atoms of its owner's information field to a
decision; totality of the table IS measurability, so every representable
policy is admissible.  Solving a profile enumerates, for every nature
point, the decision tuples that satisfy all closed-loop equations at once;
the model is solvable for that profile when each count is exactly one.

Causality follows Witsenhausen's configuration-ordering notion: an ordering
map is valid when, on every set of configurations sharing an ordering
prefix, the last agent's information events are measurable with respect to
nature plus the decisions of the earlier agents.  `find_causal_ordering`
searches for such a map with one memo over agent sets: for the agents U
already ordered it decides every (nature, u_U) cell at once on arrays with
a nature axis and one decision axis per agent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import _kernels
from .fieldcore import (
    ConfigSet,
    Configuration,
    CoordinateMask,
    FieldcoreError,
    first_occurrence,
)
from .precedence import SeparationCertificate, _conditioned, closure as topo_closure, precedes

if TYPE_CHECKING:  # pragma: no cover
    from .model import WModel

POLICY_ENUM_CAP = 200_000
SOLVABILITY_BUDGET = 50_000
SOLVABILITY_SAMPLES = 200
# Policy-table entries or prior weights one sampling call may draw (int64: 128 MiB).
SAMPLE_MAX_ENTRIES = 1 << 24
# Cells the causal-ordering memo may hold, 3 bytes each: admits kuh
# (128 * 3^7 = 279,936) and any 6-agent binary model (64 * 3^6 = 46,656).
ORDERING_MEMO_CELLS = 1 << 20


class UnsolvableProfileError(FieldcoreError):
    pass


class InvalidCertificateError(FieldcoreError):
    pass


@dataclass(frozen=True)
class Policy:
    """An admissible policy: one decision index per information-field atom."""

    owner: str
    table: np.ndarray

    def __post_init__(self):
        t = np.ascontiguousarray(self.table, dtype=np.int64)
        if t.ndim != 1:
            raise FieldcoreError("policy table must be one-dimensional")
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    def __eq__(self, other):
        return (
            isinstance(other, Policy)
            and self.owner == other.owner
            and np.array_equal(self.table, other.table)
        )


@dataclass(frozen=True)
class PolicyProfile:
    policies: Mapping[str, Policy]

    def __post_init__(self):
        object.__setattr__(self, "policies", dict(self.policies))
        for a, pol in self.policies.items():
            if pol.owner != a:
                raise FieldcoreError(f"policy for {a!r} is owned by {pol.owner!r}")

    def __getitem__(self, agent: str) -> Policy:
        return self.policies[agent]


def _check_profile(m: "WModel", profile: PolicyProfile) -> None:
    if set(profile.policies) != set(m.agents):
        raise FieldcoreError("profile must contain exactly one policy per agent")
    for a in m.agents:
        atoms = m.info[a].partition.atom_count
        size = m.decisions[a].size
        t = profile[a].table
        if t.shape != (atoms,):
            raise FieldcoreError(f"policy table for {a!r} must have {atoms} entries")
        if t.size and (t.min() < 0 or t.max() >= size):
            raise FieldcoreError(f"policy for {a!r} uses out-of-range decisions")


def policy_count(m: "WModel", agent: str) -> int:
    return m.decisions[agent].size ** m.info[agent].partition.atom_count


class PolicyEnumeration:
    """All policies of one agent in canonical order (atom 0 varies fastest)."""

    def __init__(self, m: "WModel", agent: str):
        self.agent = agent
        self._atoms = m.info[agent].partition.atom_count
        self._size = m.decisions[agent].size
        self._count = policy_count(m, agent)
        if self._count > POLICY_ENUM_CAP:
            raise FieldcoreError(
                f"{self._count} policies for {agent!r} exceeds the cap {POLICY_ENUM_CAP};"
                " use sample_policies instead"
            )
        # below the cap, so every power of the decision count fits in int64
        self._powers = self._size ** np.arange(self._atoms, dtype=np.int64)

    def __len__(self) -> int:
        return self._count

    def policy_at(self, k: int) -> Policy:
        return Policy(self.agent, (k // self._powers) % self._size)

    def __iter__(self) -> Iterator[Policy]:
        return (self.policy_at(k) for k in range(self._count))

    def tables(self) -> np.ndarray:
        """Every policy's table, one row per policy in canonical order."""
        ks = np.arange(self._count, dtype=np.int64)[:, None]
        return (ks // self._powers) % self._size


def enumerate_policies(m: "WModel", agent: str) -> PolicyEnumeration:
    return PolicyEnumeration(m, agent)


def check_sample_entries(entries: int, what: str) -> None:
    """Refuse, before any draw, a sampling call past SAMPLE_MAX_ENTRIES."""
    if entries > SAMPLE_MAX_ENTRIES:
        raise FieldcoreError(f"{what} need {entries} entries, over the limit {SAMPLE_MAX_ENTRIES}")


def sample_policies(m: "WModel", agent: str, n: int, seed=0) -> list[Policy]:
    """n independent uniform policies; deterministic under the seed."""
    rng = np.random.default_rng(seed)  # a Generator comes back unchanged
    atoms = m.info[agent].partition.atom_count
    size = m.decisions[agent].size
    draws = rng.integers(0, size, size=(n, atoms), dtype=np.int64)
    return [Policy(agent, draws[i]) for i in range(n)]


def sample_profiles(m: "WModel", n: int, seed=0) -> list[PolicyProfile]:
    check_sample_entries(n * sum(m.info[a].partition.atom_count for a in m.agents),
                         f"{n} sampled profiles")
    rng = np.random.default_rng(seed)
    per_agent = {a: sample_policies(m, a, n, rng) for a in m.agents}
    return [PolicyProfile({a: per_agent[a][i] for a in m.agents}) for i in range(n)]


@dataclass(frozen=True)
class SolutionMap:
    """Per-nature-point closed-loop solution counts and, where unique, the solution."""

    space: object
    counts: np.ndarray
    config_index: np.ndarray  # -1 where the count differs from one

    @property
    def solvable(self) -> bool:
        return bool(np.all(self.counts == 1))

    def solution(self, omega: Mapping[str, str]) -> Configuration:
        """The unique closed-loop configuration S(omega) at the nature labels omega."""
        c = int(self.config_index[self.space.omega_index(omega)])
        if c < 0:
            raise UnsolvableProfileError("no unique solution at this nature point")
        return self.space.config_at(c)


def _stacked_tables(m: "WModel", profile: PolicyProfile) -> tuple[np.ndarray, np.ndarray]:
    tables, offsets, off = [], [], 0
    for a in m.agents:
        offsets.append(off)
        tables.append(profile[a].table)
        off += profile[a].table.shape[0]
    return np.concatenate(tables), np.asarray(offsets, dtype=np.int64)


def solve(m: "WModel", profile: PolicyProfile) -> SolutionMap:
    """Count, for every nature point, the decision tuples solving u_a = policy_a(h)."""
    _check_profile(m, profile)
    atoms, uvals = m.kernel_arrays
    tables, offsets = _stacked_tables(m, profile)
    counts, sol = _kernels.solve_counts(tables, offsets, atoms, uvals, m.space.n_omega)
    return SolutionMap(m.space, counts, sol)


@dataclass(frozen=True)
class SolvabilityVerdict:
    kind: str  # SOLVABLE_PROVED | UNSOLVABLE | UNKNOWN
    profiles_checked: int
    witness: PolicyProfile | None = None
    exhaustive: bool = False


def is_model_solvable(m: "WModel") -> SolvabilityVerdict:
    """Quantify solvability over policy profiles.

    Exhaustive (a proof either way) when the profile count fits the budget;
    otherwise seeded sampling, which can only return UNSOLVABLE or UNKNOWN.
    """
    total = 1
    for a in m.agents:
        total *= policy_count(m, a)
        if total > SOLVABILITY_BUDGET:
            break
    if total <= SOLVABILITY_BUDGET:
        enums = [PolicyEnumeration(m, a) for a in m.agents]
        tables = [e.tables() for e in enums]
        n_pols = np.asarray([len(e) for e in enums], dtype=np.int64)
        atom_counts = np.asarray([t.shape[1] for t in tables], dtype=np.int64)
        atoms, uvals = m.kernel_arrays
        bad = int(_kernels.scan_profiles(
            np.concatenate([t.ravel() for t in tables]),
            np.concatenate([[0], np.cumsum(n_pols * atom_counts)[:-1]]),
            n_pols, atom_counts, atoms, uvals, m.space.n_omega, total,
        ))
        if bad < 0:
            return SolvabilityVerdict("SOLVABLE_PROVED", total, exhaustive=True)
        rest, pols = bad, {}
        for e in enums:
            rest, k = divmod(rest, len(e))
            pols[e.agent] = e.policy_at(k)
        return SolvabilityVerdict("UNSOLVABLE", bad + 1, PolicyProfile(pols), exhaustive=True)

    for i, profile in enumerate(sample_profiles(m, SOLVABILITY_SAMPLES, 0)):
        if not solve(m, profile).solvable:
            return SolvabilityVerdict("UNSOLVABLE", i + 1, profile)
    return SolvabilityVerdict("UNKNOWN", SOLVABILITY_SAMPLES)


# ---------------------------------------------------------------------------
# causality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CausalOrdering:
    """A total agent ordering per configuration (rows of agent indices)."""

    agents: tuple[str, ...]
    orders: np.ndarray  # (n_configs, n_agents) agent indices

    def __post_init__(self):
        o = np.ascontiguousarray(self.orders, dtype=np.int16)
        n = len(self.agents)
        if o.ndim != 2 or o.shape[1] != n:
            raise FieldcoreError("ordering array has the wrong shape")
        ref = np.arange(n, dtype=np.int16)
        if not np.all(np.sort(o, axis=1) == ref):
            raise FieldcoreError("each configuration ordering must be a bijection")
        o.flags.writeable = False
        object.__setattr__(self, "orders", o)

    @staticmethod
    def constant(m: "WModel", order: Sequence[str]) -> "CausalOrdering":
        if sorted(order) != sorted(m.agents):
            raise FieldcoreError("constant ordering must list every agent once")
        row = np.asarray([m.agents.index(a) for a in order], dtype=np.int16)
        return CausalOrdering(
            tuple(m.agents), np.tile(row, (m.space.n_configs, 1))
        )

    def ordering_at(self, index: int) -> tuple[str, ...]:
        return tuple(self.agents[int(k)] for k in self.orders[index])


@dataclass(frozen=True)
class CausalityCheck:
    ok: bool
    violating_prefix: tuple[str, ...] | None = None
    witness: tuple[Configuration, Configuration] | None = None


def check_causal_ordering(m: "WModel", phi: CausalOrdering) -> CausalityCheck:
    """Validate an ordering map against every nonempty ordering prefix.

    For a prefix kappa realized by phi, each event of the last agent's field,
    intersected with the prefix cell, must be generated by nature and the
    decisions of the earlier agents; the per-atom constancy scan below is
    exactly that containment.
    """
    if phi.agents != tuple(m.agents):
        raise FieldcoreError("ordering is indexed by different agents")
    space = m.space
    if phi.orders.shape[0] != space.n_configs:
        raise FieldcoreError("ordering does not have one row per configuration")
    all_nature = frozenset(m.agents)
    n = len(m.agents)
    inverse = np.zeros(space.n_configs, dtype=np.int64)
    for k in range(n):
        # dense prefix codes: they sort as the prefix rows do
        _, first, inverse = np.unique(inverse * n + phi.orders[:, k],
                                      return_index=True, return_inverse=True)
        for row, c in enumerate(first):
            kappa = tuple(m.agents[int(i)] for i in phi.orders[c, :k + 1])
            in_cell = inverse == row
            last_atoms = m.info[kappa[-1]].partition.atom_index
            labeled = np.where(in_cell, last_atoms, -1)
            codes, n_codes = space.mask_codes(
                CoordinateMask(all_nature, frozenset(kappa[:-1]))
            )
            ok, i, j = _kernels.group_constant(codes, labeled, n_codes)
            if not ok:
                return CausalityCheck(
                    False, kappa, (space.config_at(int(i)), space.config_at(int(j)))
                )
    return CausalityCheck(True)


def find_causal_ordering(m: "WModel", max_agents: int = 5) -> CausalOrdering | None:
    """Search for a causal configuration-ordering; None when none exists.

    A search cell is one value of (nature, u_U), U the agents already
    ordered.  `plan(U)` decides every cell of U at once on the atom arrays
    (a nature axis and one decision axis per agent, those outside U reduced
    to size 1): a cell is feasible when some unordered agent's atoms are
    constant on it and every cell it splits into under that agent's decision
    is feasible for U plus the agent.  The first such agent in canonical
    order goes next, so the search is exhaustive and the returned ordering
    deterministic.  The memo is keyed by U and holds at most
    n_omega * prod(1 + |U_a|) cells; a model with more than
    `ORDERING_MEMO_CELLS` is refused before anything is allocated.
    """
    n = len(m.agents)
    max_agents = min(max_agents, 63)  # NumPy arrays have at most 64 axes
    if n > max_agents:
        raise FieldcoreError(f"ordering search capped at {max_agents} agents")
    space = m.space
    sizes = space.axis_sizes  # axis 0 nature, axis 1 + i agent i's decision
    cells = sizes[0] * math.prod(1 + size for size in sizes[1:])
    if cells > ORDERING_MEMO_CELLS:
        raise FieldcoreError(
            f"ordering search capped at {ORDERING_MEMO_CELLS} memo cells (needs {cells})")
    atoms = [m.info[a].partition.atom_index.reshape(sizes, order="F") for a in m.agents]
    memo: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def plan(used: int) -> tuple[np.ndarray, np.ndarray]:
        if used in memo:
            return memo[used]
        free = tuple(1 + i for i in range(n) if not used >> i & 1)
        shape = tuple(1 if ax in free else size for ax, size in enumerate(sizes))
        ok = np.full(shape, not free)
        pick = np.full(shape, -1, dtype=np.int16)
        for i in range(n):
            if used >> i & 1 or ok.all():
                continue
            a = atoms[i]
            go = ~ok & (a.max(axis=free, keepdims=True) == a.min(axis=free, keepdims=True))
            if not go.any():
                continue
            go &= plan(used | 1 << i)[0].all(axis=1 + i, keepdims=True)
            ok |= go
            pick[go] = i
        memo[used] = ok, pick
        return ok, pick

    if not plan(0)[0].all():
        return None
    orders = np.empty((space.n_configs, n), dtype=np.int16)
    used = np.zeros(space.n_configs, dtype=np.int64)
    for depth in range(n):
        for u in np.unique(used):
            rows = used == u
            pick = np.broadcast_to(memo[int(u)][1], sizes).ravel(order="F")
            orders[rows, depth] = pick[rows]
        used += np.left_shift(1, orders[:, depth], dtype=np.int64)
    return CausalOrdering(tuple(m.agents), orders)


# ---------------------------------------------------------------------------
# factorization of the solution map under a separation certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactorizationCertificate:
    """The three blocks the solution map factors through."""

    y_block: frozenset[str]
    z_block: frozenset[str]
    residual: frozenset[str]


@dataclass(frozen=True)
class DependenceCheck:
    name: str
    passed: bool
    witness: tuple[dict, dict] | None = None  # two nature assignments


@dataclass(frozen=True)
class FactorizationReport:
    certificate: FactorizationCertificate
    checks: tuple[DependenceCheck, ...]
    vacuous: bool
    domain_size: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_factorization(
    m: "WModel",
    profile: PolicyProfile,
    ctx: ConfigSet | None,
    cert: SeparationCertificate,
    y: Iterable[str],
    z: Iterable[str],
    w: Iterable[str],
) -> FactorizationReport:
    """Check the W-pinned factorization of the solution map on ctx.

    On the nature points whose solution lands in ctx, with all of u_W
    given: the decisions of cl_y outside W must be a function of (noises of
    cl_y, u_W); dually for cl_z; the residual decisions a function of
    (residual noises, cl_y and cl_z decisions); and, for each reached value
    of u_W, the nature points reaching it must be exactly the product of
    their projections onto the noises of cl_y, of cl_z and of the residual
    (the rectangle check).  Together the first, second and fourth checks
    make the cl_y and cl_z decisions conditionally independent given u_W
    and ctx under every product prior.  A solution's nature coordinates are
    those of its nature point, so every key and value is one `mask_codes`
    code of the solution configurations: each dependence check is one
    group-constancy scan, and the rectangle check ranks (u_W, noises) pairs
    by first occurrence.  A failed check reports two nature points as a
    counterexample.

    The W decisions are inputs here, not outputs of either block: once one
    side of the splitting is pinned, the cycle inside W may keep several
    fixed points, so the fixed-split form (w_y decisions a function of the
    y-block noises and the w_z decisions) fails on some solvable xor
    profiles for every splitting (notes/decisions.md).  For the xor model
    on the full context the W-pinned form follows from unique solvability:
    with u_W fixed, each agent's equation involves its own block only, so
    every combination of block solutions is the solution.  For models with
    a residual, or under a context that is not the full space, no proof is
    given here; the form rests on these exact checks.  W here includes the
    decisions ctx fixes, as in `topologically_separated`.
    """
    y, z = frozenset(y), frozenset(z)
    w = _conditioned(m, y, z, frozenset(w), ctx)
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
    omega = np.flatnonzero(ctx.member_mask[sol.config_index])
    if omega.shape[0] == 0:
        return FactorizationReport(parts, (), vacuous=True, domain_size=0)
    sol_cfg = sol.config_index[omega]

    def codes(noises: frozenset[str], decisions: frozenset[str]) -> tuple[np.ndarray, int]:
        # a solution's nature coordinates are those of its nature point
        return space.mask_codes(CoordinateMask(noises, decisions), sol_cfg)

    def witness(i, j) -> tuple[dict, dict]:
        return (space.omega_labels_at(int(omega[i])), space.omega_labels_at(int(omega[j])))

    checks = []
    for name, block, (keys, n_keys) in (
        ("y-block", cl_y - w, codes(cl_y, w)),
        ("z-block", cl_z - w, codes(cl_z, w)),
        ("residual", residual, codes(residual, cl_y | cl_z)),
    ):
        ok, i, j = _kernels.group_constant(keys, codes(frozenset(), block)[0], n_keys)
        checks.append(DependenceCheck(name, True) if ok
                      else DependenceCheck(name, False, witness(i, j)))

    # Rectangle: rank each nature point's (u_W group, block noises) and
    # (u_W group, other noises) pairs.  The group is block x rest exactly when
    # every block pair meets every rest pair of its group; y-vs-rest and
    # z-vs-rest rectangles together give the three-way product with the
    # residual.
    w_code, _ = codes(frozenset(), w)
    rect = DependenceCheck("rectangle", True)
    for block in (cl_y, cl_z):
        inside, first_in = first_occurrence(codes(block, w)[0])
        outside, first_out = first_occurrence(codes(frozenset(m.agents) - block, w)[0])
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
