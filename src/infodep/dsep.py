"""d-separation on DAGs and the empirical d-sep vs t-sep harness.

`d_separated` is a reachability pass over (node, direction) states; the
path-enumerating `d_separated_oracle` implements the textbook blocking
rules literally and stays independent as a cross-check.  The harness draws
random DAGs, converts them to information-field models, and compares both
separation notions over every small query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .fieldcore import FieldcoreError
from .model import Dag, dag_to_idm
from .precedence import SeparationCertificate, precedes, topologically_separated

ORACLE_MAX_NODES = 10
HARNESS_MAX_W = 4


@dataclass(frozen=True)
class DsepQuery:
    y: frozenset[str]
    z: frozenset[str]
    w: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "y", frozenset(self.y))
        object.__setattr__(self, "z", frozenset(self.z))
        object.__setattr__(self, "w", frozenset(self.w))
        if (self.y & self.z) or (self.y & self.w) or (self.z & self.w):
            raise FieldcoreError("query sets must be pairwise disjoint")


def _check_query(g: Dag, q: DsepQuery) -> None:
    unknown = (q.y | q.z | q.w) - set(g.nodes)
    if unknown:
        raise FieldcoreError(f"query references unknown nodes: {sorted(unknown)}")


def _ancestors_of(g: Dag, seed: Iterable[str]) -> set[str]:
    out = set(seed)
    frontier = list(seed)
    while frontier:
        v = frontier.pop()
        for p in g.parents(v):
            if p not in out:
                out.add(p)
                frontier.append(p)
    return out


def d_separated(g: Dag, q: DsepQuery) -> bool:
    """Path-blocking criterion, decided by (node, direction) reachability."""
    _check_query(g, q)
    if not g.is_acyclic():
        raise FieldcoreError("d-separation requires an acyclic graph")
    anc_w = _ancestors_of(g, q.w)
    visited: set[tuple[str, str]] = set()
    frontier: list[tuple[str, str]] = [(y, "up") for y in q.y]
    while frontier:
        node, direction = frontier.pop()
        if (node, direction) in visited:
            continue
        visited.add((node, direction))
        if node not in q.w and node in q.z:
            return False
        if direction == "up" and node not in q.w:
            frontier.extend((p, "up") for p in g.parents(node))
            frontier.extend((c, "down") for c in g.children(node))
        elif direction == "down":
            if node not in q.w:
                frontier.extend((c, "down") for c in g.children(node))
            if node in anc_w:
                frontier.extend((p, "up") for p in g.parents(node))
    return True


def d_separated_oracle(g: Dag, q: DsepQuery) -> bool:
    """Literal definition: every simple path between y and z is blocked."""
    _check_query(g, q)
    if len(g.nodes) > ORACLE_MAX_NODES:
        raise FieldcoreError(f"oracle capped at {ORACLE_MAX_NODES} nodes")
    if not g.is_acyclic():
        raise FieldcoreError("d-separation requires an acyclic graph")
    neighbors = {v: set(g.parents(v)) | set(g.children(v)) for v in g.nodes}
    desc: dict[str, set[str]] = {}
    for v in g.nodes:
        seen = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for c in g.children(u):
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        desc[v] = seen

    def blocked(path: list[str]) -> bool:
        for i in range(1, len(path) - 1):
            prev, v, nxt = path[i - 1], path[i], path[i + 1]
            collider = (prev, v) in g.edges and (nxt, v) in g.edges
            if collider:
                if not (desc[v] & q.w):
                    return True
            elif v in q.w:
                return True
        return False

    for start in q.y:
        stack = [[start]]
        while stack:
            path = stack.pop()
            tail = path[-1]
            if tail in q.z:
                if not blocked(path):
                    return False
                continue
            for nb in neighbors[tail]:
                if nb not in path:
                    stack.append(path + [nb])
    return True


def random_dag(n: int, edge_prob: float, seed=0) -> Dag:
    """Random DAG: each lower-to-higher-index edge drawn independently."""
    if n < 1:
        raise FieldcoreError("need at least one node")
    if not 0 <= edge_prob <= 1:
        raise FieldcoreError("edge probability must lie in [0, 1]")
    rng = np.random.default_rng(seed)  # a Generator comes back unchanged
    nodes = tuple(f"V{i}" for i in range(n))
    edges = {
        (nodes[i], nodes[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_prob
    }
    return Dag(nodes, edges)


@dataclass(frozen=True)
class Disagreement:
    graph_index: int
    y: str
    z: str
    w: frozenset[str]
    d_sep: bool
    certificate: SeparationCertificate | None


@dataclass(frozen=True)
class HarnessReport:
    n_graphs: int
    n: int
    edge_prob: float
    seed: int
    queries: int
    agreements: int
    disagreements: tuple[Disagreement, ...]

    @property
    def all_agree(self) -> bool:
        return not self.disagreements


def equivalence_harness(
    n_graphs: int, n: int, edge_prob: float, seed: int = 0
) -> HarnessReport:
    """Compare d-separation with topological separation on random DAG models.

    For every graph, every unordered pair of distinct nodes (y, z) and every
    conditioning set of at most `HARNESS_MAX_W` remaining nodes is queried both
    ways.  Any disagreement is returned in full; none is expected.
    """
    rng = np.random.default_rng(seed)
    queries = agreements = 0
    disagreements: list[Disagreement] = []
    for gi in range(n_graphs):
        g = random_dag(n, edge_prob, rng)
        m = dag_to_idm(g)
        base = precedes(m)  # conditioning on W only clears rows
        nodes = g.nodes
        for yi in range(n):
            for zi in range(yi + 1, n):
                y, z = nodes[yi], nodes[zi]
                rest = [v for v in nodes if v not in (y, z)]
                for bits in range(1 << len(rest)):
                    w = frozenset(v for k, v in enumerate(rest) if bits >> k & 1)
                    if len(w) > HARNESS_MAX_W:
                        continue
                    rel = base.diagonal_restrict(set(nodes) - w)
                    cert = topologically_separated(m, {y}, {z}, w, relation=rel)
                    dsep = d_separated(g, DsepQuery({y}, {z}, w))
                    queries += 1
                    if dsep == (cert is not None):
                        agreements += 1
                    else:
                        disagreements.append(
                            Disagreement(gi, y, z, w, dsep, cert)
                        )
    return HarnessReport(
        n_graphs, n, edge_prob, seed, queries, agreements, tuple(disagreements)
    )
