"""Finite set/partition algebra for configuration spaces.

Every sigma-field handled by this package is a complete field on the whole
configuration space, so it is stored as the partition of the space into its
atoms: a single integer array mapping configuration index -> atom id.  The
one field relation the engine needs, containment of traces over a context
set, reduces to a constancy check of one labeling over the fibers of
another (`field_subset_witness`), so no trace field is ever built.

Configurations are enumerated in a fixed mixed-radix order: nature
coordinates in agent order, then decision coordinates in agent order, the
first coordinate varying fastest.  Indices never leak through public,
serialized interfaces; coordinate tuples do.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import _kernels

MAX_CONFIGS = 2 ** 24


class FieldcoreError(ValueError):
    pass


class SpaceMismatchError(FieldcoreError):
    pass


@dataclass(frozen=True)
class FiniteSpace:
    """A finite labeled set; the order of `elements` is canonical."""

    id: str
    elements: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(str(e) for e in self.elements))
        if len(self.elements) == 0:
            raise FieldcoreError(f"space {self.id!r} must have at least one element")
        if len(set(self.elements)) != len(self.elements):
            raise FieldcoreError(f"space {self.id!r} has duplicate element labels")

    @property
    def size(self) -> int:
        return len(self.elements)

    def index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise FieldcoreError(f"label {label!r} not in space {self.id!r}") from None

    @staticmethod
    def binary(id: str) -> "FiniteSpace":
        return FiniteSpace(id, ("0", "1"))


@dataclass(frozen=True)
class CoordinateMask:
    """Which nature/decision coordinates a product field may see."""

    nature: frozenset[str] = frozenset()
    decision: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "nature", frozenset(self.nature))
        object.__setattr__(self, "decision", frozenset(self.decision))


@dataclass(frozen=True)
class ConfigSpace:
    """Product of per-agent nature and decision sets, with a size guard."""

    agents: tuple[str, ...]
    nature: Mapping[str, FiniteSpace]
    decisions: Mapping[str, FiniteSpace]

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(self, "nature", dict(self.nature))
        object.__setattr__(self, "decisions", dict(self.decisions))
        if not self.agents:
            raise FieldcoreError("agent list must be nonempty")
        if len(set(self.agents)) != len(self.agents):
            raise FieldcoreError("duplicate agent ids")
        for m, kind in ((self.nature, "nature"), (self.decisions, "decision")):
            if set(m) != set(self.agents):
                raise FieldcoreError(f"{kind} coordinate keys must equal the agent set")
        total = 1
        for a in self.agents:
            total *= self.nature[a].size * self.decisions[a].size
            if total > MAX_CONFIGS:
                raise FieldcoreError(
                    f"configuration space exceeds the cap of {MAX_CONFIGS} points"
                )
        object.__setattr__(self, "_n_configs", total)

    # Coordinates are addressed as ("n", agent) / ("u", agent).

    @cached_property
    def coords(self) -> tuple[tuple[str, str], ...]:
        return tuple(("n", a) for a in self.agents) + tuple(("u", a) for a in self.agents)

    def coord_space(self, coord: tuple[str, str]) -> FiniteSpace:
        kind, agent = coord
        return self.nature[agent] if kind == "n" else self.decisions[agent]

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(self.coord_space(c).size for c in self.coords)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        out, s = [], 1
        for size in self.sizes:
            out.append(s)
            s *= size
        return tuple(out)

    @property
    def n_configs(self) -> int:
        return self._n_configs

    @property
    def n_omega(self) -> int:
        n = 1
        for a in self.agents:
            n *= self.nature[a].size
        return n

    @cached_property
    def axis_sizes(self) -> tuple[int, ...]:
        """(n_omega, |U_0|, ..., |U_{n-1}|).  A configuration index is omega +
        n_omega * u, agent 0 the fastest digit of u, so a per-configuration array
        reshaped to these sizes with order="F" has nature on axis 0 and agent i's
        decision on axis 1 + i."""
        return (self.n_omega,) + tuple(self.decisions[a].size for a in self.agents)

    @cached_property
    def _coord_value_arrays(self) -> dict[tuple[str, str], np.ndarray]:
        idx = np.arange(self.n_configs, dtype=np.int64)
        out = {}
        for coord, size, stride in zip(self.coords, self.sizes, self.strides):
            arr = (idx // stride) % size
            arr.flags.writeable = False
            out[coord] = arr
        return out

    def coord_values(self, coord: tuple[str, str]) -> np.ndarray:
        """Value index of one coordinate for every configuration index."""
        return self._coord_value_arrays[coord]

    def validate_mask(self, mask: CoordinateMask) -> None:
        unknown = (mask.nature | mask.decision) - set(self.agents)
        if unknown:
            raise FieldcoreError(f"mask references unknown agents: {sorted(unknown)}")

    def mask_coords(self, mask: CoordinateMask) -> tuple[tuple[str, str], ...]:
        self.validate_mask(mask)
        return tuple(
            c for c in self.coords
            if (c[0] == "n" and c[1] in mask.nature) or (c[0] == "u" and c[1] in mask.decision)
        )

    def mask_codes(self, mask: CoordinateMask,
                   index: np.ndarray | None = None) -> tuple[np.ndarray, int]:
        """Mixed-radix code of the masked coordinates, per configuration, and
        the codes' range; with `index`, only at those configurations.

        Codes are dense in [0, prod(masked sizes)) and their numeric order
        equals the first-occurrence order under the canonical enumeration.
        """
        coords = self.mask_coords(mask)
        codes = np.zeros(self.n_configs if index is None else len(index), dtype=np.int64)
        stride = 1
        for c in coords:
            values = self.coord_values(c)
            codes += (values if index is None else values[index]) * stride
            stride *= self.coord_space(c).size
        return codes, stride

    def index_of(self, cfg: "Configuration") -> int:
        if cfg.space is not self and cfg.space != self:
            raise SpaceMismatchError("configuration belongs to a different space")
        idx = 0
        for coord, stride in zip(self.coords, self.strides):
            kind, agent = coord
            label = cfg.nature_part[agent] if kind == "n" else cfg.decision_part[agent]
            idx += self.coord_space(coord).index(label) * stride
        return idx

    def config_at(self, index: int) -> "Configuration":
        if not 0 <= index < self.n_configs:
            raise FieldcoreError(f"configuration index {index} out of range")
        nat, dec = {}, {}
        for coord, size, stride in zip(self.coords, self.sizes, self.strides):
            kind, agent = coord
            label = self.coord_space(coord).elements[(index // stride) % size]
            (nat if kind == "n" else dec)[agent] = label
        return Configuration(self, nat, dec)

    def omega_labels_at(self, omega_index: int) -> dict[str, str]:
        """Nature labels of one point of the nature product (omega block)."""
        out = {}
        rest = omega_index
        for a in self.agents:
            sp = self.nature[a]
            out[a] = sp.elements[rest % sp.size]
            rest //= sp.size
        return out

    def omega_index(self, labels: Mapping[str, str]) -> int:
        """Index of a nature point given by its labels; inverse of `omega_labels_at`."""
        idx, stride = 0, 1
        for a in self.agents:
            if a not in labels:
                raise FieldcoreError(f"missing nature coordinate for agent {a!r}")
            sp = self.nature[a]
            idx += sp.index(labels[a]) * stride
            stride *= sp.size
        return idx


@dataclass(frozen=True)
class Configuration:
    """One point of the configuration space: full nature + decision tuples."""

    space: ConfigSpace
    nature_part: Mapping[str, str]
    decision_part: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "nature_part", dict(self.nature_part))
        object.__setattr__(self, "decision_part", dict(self.decision_part))
        for a in self.space.agents:
            for part, spaces, kind in (
                (self.nature_part, self.space.nature, "nature"),
                (self.decision_part, self.space.decisions, "decision"),
            ):
                if a not in part:
                    raise FieldcoreError(f"missing {kind} coordinate for agent {a!r}")
                if part[a] not in spaces[a].elements:
                    raise FieldcoreError(
                        f"{kind} value {part[a]!r} not in space of agent {a!r}"
                    )

    @property
    def index(self) -> int:
        return self.space.index_of(self)

    def __eq__(self, other):
        return (
            isinstance(other, Configuration)
            and self.space.agents == other.space.agents
            and self.nature_part == other.nature_part
            and self.decision_part == other.decision_part
        )

    def __hash__(self):
        return hash((
            self.space.agents,
            tuple(sorted(self.nature_part.items())),
            tuple(sorted(self.decision_part.items())),
        ))

    def __repr__(self):
        n = ",".join(f"{a}={self.nature_part[a]}" for a in self.space.agents)
        u = ",".join(f"{a}={self.decision_part[a]}" for a in self.space.agents)
        return f"(omega: {n} | u: {u})"


def _frozen_array(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    arr.flags.writeable = False
    return arr


def _frozen_bool(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=bool)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ConfigSet:
    """A subset of the configuration space, stored as a boolean mask."""

    space: ConfigSpace
    member_mask: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.member_mask)
        if mask.shape != (self.space.n_configs,):
            raise FieldcoreError("member mask has the wrong length")
        object.__setattr__(self, "member_mask", _frozen_bool(mask))

    @staticmethod
    def full(space: ConfigSpace) -> "ConfigSet":
        return ConfigSet(space, np.ones(space.n_configs, dtype=bool))

    @staticmethod
    def from_indices(space: ConfigSpace, indices: Iterable[int]) -> "ConfigSet":
        idx = np.asarray(list(indices), dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= space.n_configs):
            raise FieldcoreError(
                f"configuration indices must lie in [0, {space.n_configs})"
            )
        mask = np.zeros(space.n_configs, dtype=bool)
        mask[idx] = True
        return ConfigSet(space, mask)

    @staticmethod
    def from_configs(space: ConfigSpace, configs: Iterable[Configuration]) -> "ConfigSet":
        return ConfigSet.from_indices(space, (space.index_of(c) for c in configs))

    @staticmethod
    def from_pins(space: ConfigSpace,
                  nature: Mapping[str, str] | None = None,
                  decision: Mapping[str, str] | None = None) -> "ConfigSet":
        """All configurations whose pinned coordinates take the given labels."""
        mask = np.ones(space.n_configs, dtype=bool)
        for part, kind in ((nature or {}, "n"), (decision or {}, "u")):
            for agent, label in part.items():
                if agent not in space.agents:
                    raise FieldcoreError(f"pin references unknown agent {agent!r}")
                sp = space.coord_space((kind, agent))
                mask &= space.coord_values((kind, agent)) == sp.index(label)
        return ConfigSet(space, mask)

    @cached_property
    def indices(self) -> np.ndarray:
        return _frozen_array(np.flatnonzero(self.member_mask))

    @property
    def size(self) -> int:
        return int(self.member_mask.sum())

    @property
    def is_full(self) -> bool:
        return bool(self.member_mask.all())

    def __eq__(self, other):
        return (
            isinstance(other, ConfigSet)
            and self.space.agents == other.space.agents
            and np.array_equal(self.member_mask, other.member_mask)
        )

    def __hash__(self):
        return hash((self.space.agents, self.member_mask.tobytes()))


@dataclass(frozen=True)
class Partition:
    """A finite complete field, identified with its atom labeling.

    `atom_index[i]` is the atom of configuration i, for every configuration
    of the space.  Atom ids are canonical: contiguous from 0, numbered by
    first occurrence in enumeration order.
    """

    space: ConfigSpace
    atom_index: np.ndarray
    atom_count: int

    def __post_init__(self):
        object.__setattr__(self, "atom_index", _frozen_array(self.atom_index))
        if self.atom_index.shape != (self.space.n_configs,):
            raise FieldcoreError("atom index array has the wrong length")
        if self.atom_index.min() < 0:
            raise FieldcoreError("atom ids must be nonnegative")

    def atom_of(self, cfg: Configuration) -> int:
        return int(self.atom_index[self.space.index_of(cfg)])

    def representatives(self) -> list[int]:
        """First configuration index of each atom, in atom order."""
        return np.unique(self.atom_index, return_index=True)[1].tolist()

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.space.agents == other.space.agents
            and self.atom_count == other.atom_count
            and np.array_equal(self.atom_index, other.atom_index)
        )

    def __hash__(self):
        return hash((self.space.agents, self.atom_count, self.atom_index.tobytes()))


def _require_same_space(a: ConfigSpace, b: ConfigSpace) -> None:
    if a is not b and (a.agents != b.agents or a.sizes != b.sizes):
        raise SpaceMismatchError("operands live on different configuration spaces")


def first_occurrence(code: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Codes renumbered 0, 1, ... by first occurrence, and each one's first position."""
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse], first[order]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def partition_from_mask(space: ConfigSpace, mask: CoordinateMask) -> Partition:
    """Field generated by the masked coordinates: atoms = joint level sets."""
    codes, n_codes = space.mask_codes(mask)
    return Partition(space, codes, n_codes)


def partition_from_observation(
    space: ConfigSpace, obs: Callable[[Configuration], object]
) -> Partition:
    """Field generated by an arbitrary total observation map (atoms = level sets)."""
    seen: dict[object, int] = {}
    raw = np.empty(space.n_configs, dtype=np.int64)
    for i in range(space.n_configs):
        raw[i] = seen.setdefault(obs(space.config_at(i)), len(seen))
    return Partition(space, raw, len(seen))


def partition_from_codes(space: ConfigSpace, raw: np.ndarray | Sequence[int]) -> Partition:
    """Partition from an arbitrary integer labeling (canonicalized)."""
    raw = np.ascontiguousarray(raw, dtype=np.int64)
    if raw.shape != (space.n_configs,):
        raise FieldcoreError("code array has the wrong length")
    atom_index, first = first_occurrence(raw)
    return Partition(space, atom_index, len(first))


def field_subset_witness(
    p: Partition, mask: CoordinateMask, ctx: ConfigSet
) -> tuple[Configuration, Configuration] | None:
    """Is the trace of p on ctx contained in the trace of the mask field?

    None when it is, i.e. when configurations of ctx that agree on every
    masked coordinate always share a p-atom; otherwise the first such pair
    in ctx that sits in different p-atoms.
    """
    _require_same_space(p.space, ctx.space)
    members = ctx.indices
    if members.shape[0] == 0:
        raise FieldcoreError("containment test over an empty context")
    codes, n_codes = p.space.mask_codes(mask, members)
    ok, i, j = _kernels.group_constant(codes, p.atom_index[members], n_codes)
    if ok:
        return None
    return p.space.config_at(int(members[i])), p.space.config_at(int(members[j]))
