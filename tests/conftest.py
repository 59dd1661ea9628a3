from graphlib import TopologicalSorter

import numpy as np
import pytest

from infodep.fieldcore import (
    ConfigSet,
    ConfigSpace,
    CoordinateMask,
    FiniteSpace,
    partition_from_codes,
)
from infodep.model import (
    InformationField,
    ModelMeta,
    Prior,
    WModel,
    builtin,
    dag_to_idm,
)
from infodep.dsep import random_dag


@pytest.fixture(scope="session")
def xor_model():
    return builtin("witsenhausen-xor")


@pytest.fixture(scope="session")
def jpcbh_model():
    return builtin("jpcbh")


@pytest.fixture(scope="session")
def kuh_model():
    return builtin("kuh")


@pytest.fixture(scope="session")
def common_cause_model():
    return builtin("common-cause")


@pytest.fixture(scope="session")
def tikka_model():
    return builtin("tikka-context")


@pytest.fixture(scope="session")
def spirtes_model():
    return builtin("spirtes-discrete")


def full_mask(space):
    """The mask that sees every coordinate of the space."""
    return CoordinateMask(space.agents, space.agents)


def topological_order(g):
    """Some topological order of an acyclic `Dag`, from the standard library."""
    return tuple(TopologicalSorter({v: g.parents(v) for v in g.nodes}).static_order())


def binary_spaces(agents):
    return (
        {a: FiniteSpace.binary(f"omega[{a}]") for a in agents},
        {a: FiniteSpace.binary(f"u[{a}]") for a in agents},
    )


def mutual_observation_model():
    """Two agents, each seeing only the other's decision (x = y, y = x)."""
    agents = ("a", "b")
    nature = {x: FiniteSpace(f"omega[{x}]", ("*",)) for x in agents}
    decisions = {x: FiniteSpace.binary(f"u[{x}]") for x in agents}
    space = ConfigSpace(agents, nature, decisions)
    info = {
        "a": InformationField.from_mask(space, "a", CoordinateMask(frozenset(), {"b"})),
        "b": InformationField.from_mask(space, "b", CoordinateMask(frozenset(), {"a"})),
    }
    return WModel(space, info, prior=Prior.uniform(space),
                  meta=ModelMeta(name="mutual-observation"))


def random_mask_model(rng, n_agents=None, local_noise=True, edge_prob=0.45,
                      self_observing=False):
    """Random binary model with mask fields (possibly cyclic); with
    `self_observing`, an agent may also see its own decision."""
    n = int(n_agents) if n_agents is not None else int(rng.integers(2, 6))
    agents = tuple(f"A{i}" for i in range(n))
    nature, decisions = binary_spaces(agents)
    space = ConfigSpace(agents, nature, decisions)
    info = {}
    for a in agents:
        seen_u = frozenset(b for b in agents
                           if (b != a or self_observing) and rng.random() < edge_prob)
        if local_noise:
            seen_n = frozenset({a})
        else:
            seen_n = frozenset(b for b in agents if rng.random() < 0.6) | {a}
        info[a] = InformationField.from_mask(space, a, CoordinateMask(seen_n, seen_u))
    return WModel(space, info, meta=ModelMeta(name="random-mask"))


def context_model(rng, self_observing=False, local_noise=True):
    """Random 2-4 agent model with 1-, 2- and 3-valued coordinates.  A field
    is a mask (own noise, some decisions) or an observation table that sees
    the owner's noise, the decision u_c of one context agent, and u_b where
    u_c = 0 but u_d elsewhere.  With `self_observing` a mask may also see
    the owner's decision; without `local_noise` it may see other agents'
    noise.  The defaults draw no extra random numbers."""
    n = int(rng.integers(2, 5))
    agents = tuple(f"A{i}" for i in range(n))
    sizes = rng.integers(1, 4, size=(2, n))
    while sizes.prod() > 4096:
        sizes = rng.integers(1, 4, size=(2, n))
    spaces = [{a: FiniteSpace(f"{kind}[{a}]", tuple(str(v) for v in range(k)))
               for a, k in zip(agents, row)} for kind, row in zip(("omega", "u"), sizes)]
    space = ConfigSpace(agents, *spaces)
    info = {}
    ctx = agents[int(rng.integers(n))]
    for a in agents:
        others = [b for b in agents if b != a]
        if a == ctx or rng.random() < 0.3:
            pool = agents if self_observing else others
            seen = frozenset(b for b in pool if rng.random() < 0.3)
            noise = {a}
            if not local_noise:
                noise |= {b for b in others if rng.random() < 0.5}
            info[a] = InformationField.from_mask(space, a, CoordinateMask(noise, seen))
            continue
        c = space.coord_values(("u", ctx))
        b, d = (space.coord_values(("u", x)) for x in rng.choice(others, 2))
        raw = ((space.coord_values(("n", a)) * 3 + c) * 4
               + np.where(c == 0, 1 + b, 0)) * 4 + np.where(c == 0, 0, 1 + d)
        info[a] = InformationField(a, partition_from_codes(space, raw))
    return WModel(space, info, meta=ModelMeta(name="context-model"))


def random_dag_model(rng, n=5, edge_prob=0.4):
    g = random_dag(n, edge_prob, rng)
    return dag_to_idm(g), g


def random_context(rng, space):
    """Full space, a pinned decision coordinate, or a random nonempty subset."""
    roll = rng.random()
    if roll < 0.5:
        return None
    if roll < 0.75:
        a = space.agents[int(rng.integers(len(space.agents)))]
        lab = space.decisions[a].elements[int(rng.integers(space.decisions[a].size))]
        return ConfigSet.from_pins(space, decision={a: lab})
    mask = rng.random(space.n_configs) < 0.5
    if not mask.any():
        mask[int(rng.integers(space.n_configs))] = True
    return ConfigSet(space, mask)


def random_disjoint_sets(rng, agents, want_w=True):
    """Random disjoint (Y, Z, W) with nonempty Y and Z."""
    agents = list(agents)
    rng.shuffle(agents)
    ny = 1 + int(rng.integers(0, 2)) if len(agents) >= 4 else 1
    nz = 1
    y = frozenset(agents[:ny])
    z = frozenset(agents[ny:ny + nz])
    rest = agents[ny + nz:]
    if want_w and rest:
        nw = int(rng.integers(0, len(rest) + 1))
        w = frozenset(rest[:nw])
    else:
        w = frozenset()
    return y, z, w


def fixed_decisions(m, y, z, ctx):
    """Reference for the decisions a context fixes: the agents outside Y u Z
    whose decision column has one distinct value over ctx's members, out of
    at least two.  None stands for the full space, which fixes none."""
    if ctx is None:
        return frozenset()
    return frozenset(
        a for a in m.agents
        if a not in set(y) | set(z) and m.space.decisions[a].size > 1
        and np.unique(m.space.coord_values(("u", a))[ctx.indices]).size == 1
    )
