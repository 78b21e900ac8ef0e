"""Directed graphs, connectivity checks, and generators for experiment sweeps.

Nodes are 1-based in all external formats. Graphs are immutable after
construction and safe to share read-only across experiment workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components


@dataclass(frozen=True)
class DirectedGraph:
    """A directed graph on nodes {1..n} with no stored self-loops."""

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"node count must be positive, got {self.n}")
        edges = frozenset((int(i), int(j)) for i, j in self.edges)
        object.__setattr__(self, "edges", edges)
        for i, j in edges:
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"edge ({i},{j}) out of range for n={self.n}")
            if i == j:
                raise ValueError(f"self-loop ({i},{i}) not allowed in edge set")

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self.edges

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "edges": sorted(self.edges)})

    @staticmethod
    def from_json(text: str) -> "DirectedGraph":
        obj = json.loads(text)
        return DirectedGraph(obj["n"], frozenset(tuple(e) for e in obj["edges"]))


def structure_matrix(g: DirectedGraph) -> np.ndarray:
    """Binary structure matrix: entry (i,j)=1 iff edge (i,j), diagonal all ones.

    The diagonal is included so the mask also covers the diagonal entries of
    weight matrices; see structure_masks in fixedpoint_rank.
    """
    return np.eye(g.n) + adjacency_matrix(g)


def adjacency_matrix(g: DirectedGraph) -> np.ndarray:
    """0/1 adjacency without the diagonal."""
    a = np.zeros((g.n, g.n))
    for i, j in g.edges:
        a[i - 1, j - 1] = 1.0
    return a


def is_strongly_connected(g: DirectedGraph) -> bool:
    """True iff every ordered node pair is joined by a directed path."""
    if g.n == 1:
        return True
    if not g.edges:
        return False
    rows = [i - 1 for i, _ in g.edges]
    cols = [j - 1 for _, j in g.edges]
    m = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(g.n, g.n))
    ncomp, _ = connected_components(m, directed=True, connection="strong")
    return ncomp == 1


def is_symmetric(g: DirectedGraph) -> bool:
    """True iff the edge set is closed under pair reversal."""
    return all((j, i) in g.edges for i, j in g.edges)


def complete_graph(n: int) -> DirectedGraph:
    """All n(n-1) ordered pairs."""
    if n < 1:
        raise ValueError("n must be >= 1")
    edges = frozenset((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j)
    return DirectedGraph(n, edges)


def ring_graph(n: int) -> DirectedGraph:
    """Symmetric ring: edges (i, i +/- 1 mod n) stored in both directions."""
    if n < 3:
        raise ValueError("ring requires n >= 3")
    edges = set()
    for i in range(1, n + 1):
        j = i % n + 1
        edges.add((i, j))
        edges.add((j, i))
    return DirectedGraph(n, frozenset(edges))


def _hamiltonian_cycle_edges(n: int, rng: np.random.Generator) -> set:
    order = rng.permutation(n) + 1
    return {(int(order[k]), int(order[(k + 1) % n])) for k in range(n)}


def _add_symmetric_pairs(n: int, edge_prob: float, rng: np.random.Generator,
                         edges: set) -> DirectedGraph:
    """Add each undirected pair i < j not yet in edges, in both directions,
    with probability edge_prob (one draw per such pair, row-major)."""
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) not in edges and rng.random() < edge_prob:
                edges |= {(i, j), (j, i)}
    return DirectedGraph(n, frozenset(edges))


def random_strongly_connected(n: int, edge_prob: float, seed: int) -> DirectedGraph:
    """Random strongly connected digraph, deterministic per seed.

    A random Hamiltonian directed cycle guarantees strong connectivity; each
    remaining ordered pair is then added independently with probability
    edge_prob.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = np.random.default_rng(seed)
    edges = _hamiltonian_cycle_edges(n, rng)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and (i, j) not in edges and rng.random() < edge_prob:
                edges.add((i, j))
    return DirectedGraph(n, frozenset(edges))


def random_connected_er(n: int, edge_prob: float, seed: int) -> DirectedGraph:
    """Erdos-Renyi symmetric graph conditioned on connectivity.

    Each undirected pair is present with probability edge_prob (both
    directions stored); samples are rejected until connected. Unlike the
    backbone-based generators this puts positive probability on trees, which
    matters for the rank statistics of descent-mode limits.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = np.random.default_rng(seed)
    for _ in range(100_000):
        g = _add_symmetric_pairs(n, edge_prob, rng, set())
        if is_strongly_connected(g):
            return g
    raise RuntimeError(f"no connected sample in 100000 draws (n={n}, p={edge_prob})")


def random_symmetric_connected(n: int, edge_prob: float, seed: int) -> DirectedGraph:
    """Random symmetric connected graph (both edge directions stored).

    Same backbone-plus-random-pairs construction as random_strongly_connected,
    with every edge symmetrized, so the result is a connected undirected graph.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = np.random.default_rng(seed)
    edges = set()
    for i, j in _hamiltonian_cycle_edges(n, rng):
        edges.add((i, j))
        edges.add((j, i))
    return _add_symmetric_pairs(n, edge_prob, rng, edges)
