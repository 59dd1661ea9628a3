"""Model construction and validation, imports from SCMs/DAGs, interventions.

A model bundles a configuration space with one information field per agent
(and optionally a product prior over nature and a canonical policy
profile).  Information fields come in two flavors: coordinate masks (the
sugar that covers every SCM- or DAG-derived model) and arbitrary
observation maps, which are what context-specific structure needs.

Intervening on a set of target agents adds a binary switch agent whose
decision selects, inside each target's information field, between the
original atoms (switch 0) and the replacement atoms (switch 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .fieldcore import (
    ConfigSet,
    ConfigSpace,
    Configuration,
    CoordinateMask,
    FieldcoreError,
    FiniteSpace,
    Partition,
    SpaceMismatchError,
    _require_same_space,
    field_subset_witness,
    partition_from_codes,
    partition_from_mask,
    partition_from_observation,
)
from .solvability import Policy, PolicyProfile


SAMPLE_MAX_DENOMINATOR = 64


class ModelError(FieldcoreError):
    pass


@dataclass(frozen=True)
class InformationField:
    """What one agent is allowed to see, as a partition of the configuration space."""

    owner: str
    partition: Partition
    mask: CoordinateMask | None = None  # set when mask-generated

    @staticmethod
    def from_mask(space: ConfigSpace, owner: str, mask: CoordinateMask) -> "InformationField":
        return InformationField(owner, partition_from_mask(space, mask), mask)

    @staticmethod
    def from_observation(space: ConfigSpace, owner: str, obs) -> "InformationField":
        return InformationField(owner, partition_from_observation(space, obs), None)


def _require_space(f: InformationField, space: ConfigSpace, what: str) -> None:
    """A field must live on `space`: the same agents and coordinate sizes."""
    try:
        _require_same_space(f.partition.space, space)
    except SpaceMismatchError:
        raise ModelError(f"{what} lives on a different space") from None


def weight_dtype(denom: int):
    """int64 when products of two weights over `denom` fit, Python ints otherwise.

    Exact tests compare products of two masses, so weights over D stay int64
    only while D**2 < 2**62.
    """
    return np.int64 if denom < 2 ** 31 else object


@dataclass(frozen=True)
class Prior:
    """Product prior over nature: exact rational mass per coordinate label."""

    masses: Mapping[str, Mapping[str, Fraction]]

    def __post_init__(self):
        clean = {}
        for agent, dist in self.masses.items():
            dist = {str(k): Fraction(v) for k, v in dist.items()}
            if any(v < 0 for v in dist.values()):
                raise ModelError(f"prior for {agent!r} has a negative mass")
            lcd = math.lcm(*(v.denominator for v in dist.values()))
            if sum(v.numerator * (lcd // v.denominator) for v in dist.values()) != lcd:
                raise ModelError(f"prior for {agent!r} does not sum to one exactly")
            clean[agent] = dist
        object.__setattr__(self, "masses", clean)

    def mass(self, agent: str, label: str) -> Fraction:
        return self.masses[agent].get(label, Fraction(0))

    def omega_weights(self, space: ConfigSpace) -> tuple[np.ndarray, int]:
        """Integer weight of every nature point over one common denominator.

        Each agent's masses become numerators over that agent's least common
        denominator; the weights are their mixed-radix outer product, agent 0
        the fastest digit as in `ConfigSpace.omega_labels_at`, and the
        denominator D is the product of the agents' denominators.  The
        weights have the dtype `weight_dtype(D)`.
        """
        factors, denom = [], 1
        for a in space.agents:
            masses = [self.mass(a, lab) for lab in space.nature[a].elements]
            lcd = math.lcm(*(p.denominator for p in masses))
            factors.append([p.numerator * (lcd // p.denominator) for p in masses])
            denom *= lcd
        dtype = weight_dtype(denom)
        weights = np.ones(1, dtype=dtype)
        for f in factors:
            weights = np.multiply.outer(np.array(f, dtype=dtype), weights).ravel()
        return weights, denom

    def omega_mass(self, space: ConfigSpace, omega_index: int) -> Fraction:
        weights, denom = self.omega_weights(space)
        return Fraction(int(weights[omega_index]), denom)

    @staticmethod
    def uniform(space: ConfigSpace) -> "Prior":
        return Prior({
            a: {lab: Fraction(1, space.nature[a].size) for lab in space.nature[a].elements}
            for a in space.agents
        })

    @staticmethod
    def sample(space: ConfigSpace, rng: np.random.Generator) -> "Prior":
        """Random full-support rational prior with small denominators.

        An agent with k labels gets a denominator drawn from
        [k, max(k, SAMPLE_MAX_DENOMINATOR)].
        """
        masses = {}
        for a in space.agents:
            labels = space.nature[a].elements
            k = len(labels)
            denom = int(rng.integers(k, max(k, SAMPLE_MAX_DENOMINATOR) + 1))
            extra = rng.multinomial(denom - k, [1.0 / k] * k)
            masses[a] = {lab: Fraction(1 + int(e), denom) for lab, e in zip(labels, extra)}
        return Prior(masses)


@dataclass(frozen=True)
class ModelMeta:
    name: str = "model"
    provenance: str = "USER"  # PAPER | RECONSTRUCTED | USER
    notes: str = ""
    source_dag: "Dag | None" = None


@dataclass(frozen=True)
class WModel:
    """Agents, spaces and information fields (plus optional prior/policies)."""

    space: ConfigSpace
    info: Mapping[str, InformationField]
    prior: Prior | None = None
    canonical_profile: PolicyProfile | None = None
    meta: ModelMeta = field(default_factory=ModelMeta)

    def __post_init__(self):
        object.__setattr__(self, "info", dict(self.info))
        if set(self.info) != set(self.space.agents):
            raise ModelError("information fields must cover the agent set exactly")
        for a, f in self.info.items():
            if f.owner != a:
                raise ModelError(f"field stored under {a!r} is owned by {f.owner!r}")
            _require_space(f, self.space, f"field of {a!r}")
        if self.prior is not None:
            for a in self.space.agents:
                if a not in self.prior.masses:
                    raise ModelError(f"prior missing agent {a!r}")
                unknown = set(self.prior.masses[a]) - set(self.space.nature[a].elements)
                if unknown:
                    raise ModelError(f"prior for {a!r} names unknown labels {unknown}")

    @property
    def agents(self) -> tuple[str, ...]:
        return self.space.agents

    @property
    def nature(self) -> Mapping[str, FiniteSpace]:
        return self.space.nature

    @property
    def decisions(self) -> Mapping[str, FiniteSpace]:
        return self.space.decisions

    @cached_property
    def kernel_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(per-agent field atoms, per-agent own decision values), both (A, N)."""
        atoms = np.stack([self.info[a].partition.atom_index for a in self.agents])
        uvals = np.stack([self.space.coord_values(("u", a)) for a in self.agents])
        return np.ascontiguousarray(atoms), np.ascontiguousarray(uvals)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    agent: str
    check: str
    passed: bool
    witness: tuple[Configuration, Configuration] | None = None


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def validate_model(m: WModel, require_local_noise: bool = False) -> ValidationReport:
    """Per-agent structural checks, report style (violations carry witnesses).

    Containment in the full configuration field always holds for atomic
    partitions and is verified for the report; under `require_local_noise`
    each field may additionally depend on no nature coordinate but the
    owner's own.
    """
    full = ConfigSet.full(m.space)
    all_agents = frozenset(m.agents)
    checks: list[CheckResult] = []
    for a in m.agents:
        p = m.info[a].partition
        w = field_subset_witness(p, CoordinateMask(all_agents, all_agents), full)
        checks.append(CheckResult(a, "configuration-field", w is None, w))
        if require_local_noise:
            w = field_subset_witness(p, CoordinateMask(frozenset({a}), all_agents), full)
            checks.append(CheckResult(a, "local-noise", w is None, w))
    return ValidationReport(tuple(checks))


# ---------------------------------------------------------------------------
# imports from SCMs and DAGs
# ---------------------------------------------------------------------------

Assignment = Callable[[str, Mapping[str, str]], str]


@dataclass(frozen=True)
class ScmSpec:
    """Structural assignments: per agent, parents and a map (own noise, parent decisions) -> decision."""

    parents: Mapping[str, tuple[str, ...]]
    assignments: Mapping[str, Assignment]

    def __post_init__(self):
        object.__setattr__(
            self, "parents", {a: tuple(ps) for a, ps in self.parents.items()}
        )
        object.__setattr__(self, "assignments", dict(self.assignments))
        if set(self.parents) != set(self.assignments):
            raise ModelError("parents and assignments must cover the same agents")


@dataclass(frozen=True)
class Dag:
    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", frozenset(tuple(e) for e in self.edges))
        known = set(self.nodes)
        for u, v in self.edges:
            if u not in known or v not in known:
                raise ModelError(f"edge ({u},{v}) references an unknown node")

    @cached_property
    def _parents(self) -> dict[str, tuple[str, ...]]:
        return {v: tuple(u for u in self.nodes if (u, v) in self.edges) for v in self.nodes}

    @cached_property
    def _children(self) -> dict[str, tuple[str, ...]]:
        return {u: tuple(v for v in self.nodes if (u, v) in self.edges) for u in self.nodes}

    def parents(self, node: str) -> tuple[str, ...]:
        return self._parents.get(node, ())

    def children(self, node: str) -> tuple[str, ...]:
        return self._children.get(node, ())

    def has_self_loop(self) -> bool:
        return any(u == v for u, v in self.edges)

    def is_acyclic(self) -> bool:
        return self._topological_order is not None

    @cached_property
    def _topological_order(self) -> tuple[str, ...] | None:
        indeg = {v: 0 for v in self.nodes}
        for _, v in self.edges:
            indeg[v] += 1
        ready = [v for v in self.nodes if indeg[v] == 0]
        out: list[str] = []
        while ready:
            v = ready.pop(0)
            out.append(v)
            for w in self.children(v):
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
        return tuple(out) if len(out) == len(self.nodes) else None


def _binary_spaces(agents: Sequence[str], prefix: str) -> dict[str, FiniteSpace]:
    return {a: FiniteSpace.binary(f"{prefix}[{a}]") for a in agents}


def scm_to_idm(
    spec: ScmSpec,
    nature: Mapping[str, FiniteSpace],
    decisions: Mapping[str, FiniteSpace],
    agent_order: Sequence[str] | None = None,
    prior: Prior | None = None,
    meta: ModelMeta | None = None,
) -> WModel:
    """Read the structural assignments as fields plus a canonical profile.

    Agent a's field sees its own noise and its parents' decisions; the
    assignment map, tabulated over that field's atoms, becomes the attached
    canonical policy.
    """
    agents = tuple(agent_order) if agent_order is not None else tuple(spec.parents)
    known = set(agents)
    for a, ps in spec.parents.items():
        bad = set(ps) - known
        if bad:
            raise ModelError(f"parents of {a!r} reference unknown agents {sorted(bad)}")
    space = ConfigSpace(agents, nature, decisions)
    info, policies = {}, {}
    for a in agents:
        mask = CoordinateMask(frozenset({a}), frozenset(spec.parents[a]))
        f = InformationField.from_mask(space, a, mask)
        info[a] = f
        table = np.empty(f.partition.atom_count, dtype=np.int64)
        for atom, rep in enumerate(f.partition.representatives()):
            cfg = space.config_at(rep)
            out = spec.assignments[a](
                cfg.nature_part[a], {p: cfg.decision_part[p] for p in spec.parents[a]}
            )
            table[atom] = decisions[a].index(str(out))
        policies[a] = Policy(a, table)
    return WModel(
        space, info, prior=prior,
        canonical_profile=PolicyProfile(policies),
        meta=meta or ModelMeta(name="scm-model"),
    )


def dag_to_idm(
    g: Dag,
    nature: Mapping[str, FiniteSpace] | None = None,
    decisions: Mapping[str, FiniteSpace] | None = None,
    prior: Prior | None = None,
    meta: ModelMeta | None = None,
) -> WModel:
    """Fields follow the arrows (own noise + parent decisions); no policies.

    Directed cycles are accepted; only self-loops are rejected.
    """
    if g.has_self_loop():
        raise ModelError("graph has a self-loop")
    nature = nature or _binary_spaces(g.nodes, "omega")
    decisions = decisions or _binary_spaces(g.nodes, "u")
    space = ConfigSpace(g.nodes, nature, decisions)
    info = {
        a: InformationField.from_mask(
            space, a, CoordinateMask(frozenset({a}), frozenset(g.parents(a)))
        )
        for a in g.nodes
    }
    return WModel(
        space, info, prior=prior,
        meta=meta or ModelMeta(name="dag-model", source_dag=g),
    )


# ---------------------------------------------------------------------------
# interventions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterventionSpec:
    targets: tuple[str, ...]
    replacement_fields: Mapping[str, InformationField]
    switch_prob: Fraction = Fraction(1, 2)  # mass of switch value 1
    switch_agent: str = "I"

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "replacement_fields", dict(self.replacement_fields))
        p = Fraction(self.switch_prob)
        object.__setattr__(self, "switch_prob", p)
        if not (0 < p < 1):
            raise ModelError("switch probability must have full support (0 < p < 1)")
        if set(self.replacement_fields) != set(self.targets):
            raise ModelError("replacement fields must cover the targets exactly")


def intervene(m: WModel, spec: InterventionSpec) -> WModel:
    """Extend the model with a binary switch agent implementing the intervention.

    Non-target fields ignore the new coordinates; each target's field equals
    the original atoms where the switch decision is 0 and the replacement
    atoms where it is 1 (the switch decision itself is always visible to the
    target).  The switch agent sees only its own noise, and the prior gains
    an independent switch factor.
    """
    targets = set(spec.targets)
    unknown = targets - set(m.agents)
    if unknown:
        raise ModelError(f"intervention targets unknown agents: {sorted(unknown)}")
    if spec.switch_agent in m.agents:
        raise ModelError(f"switch agent name {spec.switch_agent!r} is already used")
    for z, f in spec.replacement_fields.items():
        _require_space(f, m.space, f"replacement field for {z!r}")

    i_name = spec.switch_agent
    agents = m.agents + (i_name,)
    nature = dict(m.nature)
    decisions = dict(m.decisions)
    nature[i_name] = FiniteSpace.binary(f"omega[{i_name}]")
    decisions[i_name] = FiniteSpace.binary(f"u[{i_name}]")
    new_space = ConfigSpace(agents, nature, decisions)

    base_idx, _ = new_space.mask_codes(CoordinateMask(m.agents, m.agents))
    switch = new_space.coord_values(("u", i_name))
    info: dict[str, InformationField] = {}
    for a in m.agents:
        base_atoms = m.info[a].partition.atom_index[base_idx]
        if a in targets:
            repl_atoms = spec.replacement_fields[a].partition.atom_index[base_idx]
            offset = m.info[a].partition.atom_count
            raw = np.where(switch == 0, base_atoms, offset + repl_atoms)
            info[a] = InformationField(a, partition_from_codes(new_space, raw))
        else:
            info[a] = InformationField(
                a, partition_from_codes(new_space, base_atoms), m.info[a].mask
            )
    info[i_name] = InformationField.from_mask(
        new_space, i_name, CoordinateMask(frozenset({i_name}), frozenset())
    )

    prior = None
    if m.prior is not None:
        masses = dict(m.prior.masses)
        masses[i_name] = {"0": 1 - spec.switch_prob, "1": spec.switch_prob}
        prior = Prior(masses)

    return WModel(
        new_space, info, prior=prior,
        meta=ModelMeta(
            name=f"{m.meta.name}/intervened({','.join(spec.targets)})",
            provenance=m.meta.provenance,
        ),
    )


def extend_profile(
    base: WModel,
    intervened: WModel,
    spec: InterventionSpec,
    base_profile: PolicyProfile,
    replacement_policies: Mapping[str, Policy] | None = None,
    switch_policy: Policy | None = None,
) -> PolicyProfile:
    """Lift a base profile onto an intervened model.

    Targets follow their base policy on switch 0 and the replacement policy
    on switch 1 (default: the replacement field's first decision everywhere);
    the switch agent plays its own noise by default.  Each table entry is
    read at its atom's first configuration, through the base configuration
    with the same nature and base decisions.
    """
    replacement_policies = dict(replacement_policies or {})
    space = intervened.space
    i_name = spec.switch_agent
    base_mask = CoordinateMask(base.agents, base.agents)
    on = space.decisions[i_name].index("1")
    policies: dict[str, Policy] = {}
    for a in base.agents:
        reps = intervened.info[a].partition.representatives()
        base_rep, _ = space.mask_codes(base_mask, reps)
        table = base_profile[a].table[base.info[a].partition.atom_index[base_rep]]
        if a in spec.targets:
            repl = replacement_policies.get(a)
            alt = 0 if repl is None else repl.table[
                spec.replacement_fields[a].partition.atom_index[base_rep]]
            table = np.where(space.coord_values(("u", i_name), reps) == on, alt, table)
        policies[a] = Policy(a, table)
    if switch_policy is None:
        reps = intervened.info[i_name].partition.representatives()
        switch_policy = Policy(i_name, space.coord_values(("n", i_name), reps))
    policies[i_name] = switch_policy
    return PolicyProfile(policies)


# ---------------------------------------------------------------------------
# builtin registry
# ---------------------------------------------------------------------------

def _xor_model() -> WModel:
    agents = ("X0", "X1", "X2", "X3", "X4")

    def b(s: str) -> int:
        return int(s)

    spec = ScmSpec(
        parents={
            "X0": ("X1", "X2", "X3"),
            "X1": ("X0", "X2", "X4"),
            "X2": ("X0", "X1"),
            "X3": (),
            "X4": (),
        },
        assignments={
            "X0": lambda w, u: str((b(u["X1"]) & (1 - b(u["X2"]))) ^ b(w) ^ b(u["X3"])),
            "X1": lambda w, u: str((b(u["X2"]) & (1 - b(u["X0"]))) ^ b(w) ^ b(u["X4"])),
            "X2": lambda w, u: str((b(u["X0"]) & (1 - b(u["X1"]))) ^ b(w)),
            "X3": lambda w, u: w,
            "X4": lambda w, u: w,
        },
    )
    prior = Prior({a: {"0": Fraction(9, 10), "1": Fraction(1, 10)} for a in agents})
    return scm_to_idm(
        spec, _binary_spaces(agents, "omega"), _binary_spaces(agents, "u"),
        agent_order=agents, prior=prior,
        meta=ModelMeta(
            name="witsenhausen-xor", provenance="PAPER",
            notes="cyclic xor system; noises are independent coins of bias 1/10",
        ),
    )


def _common_cause_model() -> WModel:
    g = Dag(("Z", "T", "Y"), {("Z", "T"), ("Z", "Y"), ("T", "Y")})
    m = dag_to_idm(g, meta=ModelMeta(name="common-cause", provenance="PAPER", source_dag=g))
    return WModel(m.space, m.info, prior=Prior.uniform(m.space), meta=m.meta)


def _kuh_model() -> WModel:
    nodes = ("X1", "X2", "X3", "X4", "Y1", "Y2", "W")
    edges = {
        ("X3", "Y1"), ("W", "Y1"), ("W", "Y2"),
        ("Y1", "X1"), ("Y2", "X1"), ("Y1", "X2"), ("Y2", "X2"),
        ("W", "X4"), ("X4", "X2"),
    }
    g = Dag(nodes, edges)
    m = dag_to_idm(g, meta=ModelMeta(
        name="kuh", provenance="RECONSTRUCTED", source_dag=g,
        notes="edge set reconstructed from caption constraints; see README",
    ))
    return WModel(m.space, m.info, prior=Prior.uniform(m.space), meta=m.meta)


def _jpcbh_model() -> WModel:
    nodes = ("X1", "X2", "Y1", "Y2", "xi1", "xi2")
    edges = {
        ("xi1", "X1"), ("xi2", "X2"), ("xi1", "Y1"), ("xi2", "Y2"),
        ("Y2", "X1"), ("Y1", "X2"), ("Y2", "Y1"), ("Y1", "Y2"),
    }
    g = Dag(nodes, edges)
    m = dag_to_idm(g, meta=ModelMeta(name="jpcbh", provenance="PAPER", source_dag=g))
    return WModel(m.space, m.info, prior=Prior.uniform(m.space), meta=m.meta)


def _tikka_context_model() -> WModel:
    agents = ("s", "a", "b")
    space = ConfigSpace(agents, _binary_spaces(agents, "omega"), _binary_spaces(agents, "u"))

    def obs_b(cfg: Configuration) -> str:
        seen = cfg.decision_part["a"] if cfg.decision_part["s"] == "1" else "-"
        return f"{cfg.nature_part['b']}|{cfg.decision_part['s']}|{seen}"

    info = {
        "s": InformationField.from_mask(space, "s", CoordinateMask({"s"}, frozenset())),
        "a": InformationField.from_mask(space, "a", CoordinateMask({"a"}, frozenset())),
        "b": InformationField.from_observation(space, "b", obs_b),
    }
    return WModel(
        space, info, prior=Prior.uniform(space),
        meta=ModelMeta(
            name="tikka-context", provenance="RECONSTRUCTED",
            notes="switch model: b sees a's decision only where u_s = 1",
        ),
    )


def _spirtes_discrete_model() -> WModel:
    agents = ("X", "Y", "Z", "W")
    labels = ("-1", "0", "1")
    spaces = {a: FiniteSpace(f"t[{a}]", labels) for a in agents}

    def clamp(v: int) -> str:
        return str(max(-1, min(1, v)))

    spec = ScmSpec(
        parents={"X": (), "Y": (), "Z": ("W", "Y"), "W": ("Z", "X")},
        assignments={
            "X": lambda w, u: w,
            "Y": lambda w, u: w,
            "Z": lambda w, u: clamp(int(u["W"]) * int(u["Y"]) + int(w)),
            "W": lambda w, u: clamp(int(u["Z"]) * int(u["X"]) + int(w)),
        },
    )
    prior = Prior({a: {lab: Fraction(1, 3) for lab in labels} for a in agents})
    return scm_to_idm(
        spec, dict(spaces), {a: FiniteSpace(f"u[{a}]", labels) for a in agents},
        agent_order=agents, prior=prior,
        meta=ModelMeta(
            name="spirtes-discrete", provenance="RECONSTRUCTED",
            notes=(
                "discretized two-cycle system; the canonical profile is NOT"
                " solvable at every nature point (some points admit 0, 2 or 3"
                " solutions), so the model is excluded from theorem-level claims"
            ),
        ),
    )


BUILTIN_BUILDERS: dict[str, Callable[[], WModel]] = {
    "common-cause": _common_cause_model,
    "kuh": _kuh_model,
    "jpcbh": _jpcbh_model,
    "witsenhausen-xor": _xor_model,
    "tikka-context": _tikka_context_model,
    "spirtes-discrete": _spirtes_discrete_model,
}


def builtin_names() -> tuple[str, ...]:
    return tuple(BUILTIN_BUILDERS)


def builtin(name: str) -> WModel:
    try:
        builder = BUILTIN_BUILDERS[name]
    except KeyError:
        raise ModelError(
            f"unknown builtin {name!r}; available: {', '.join(BUILTIN_BUILDERS)}"
        ) from None
    return builder()
