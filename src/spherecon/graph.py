"""Directed graphs, connectivity checks, and generators for experiment sweeps.

A graph is one read-only (n, n) bool adjacency array with a false diagonal:
the off-diagonal zero structure of its weight matrices. Nodes are 1-based
only in edge lists (DirectedGraph.from_edges, JSON). Graphs are immutable
and safe to share read-only across experiment workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """A directed graph on nodes {1..n} with no self-loops."""

    adjacency: np.ndarray

    def __post_init__(self):
        adj = np.array(self.adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1] or adj.shape[0] < 1:
            raise ValueError(f"adjacency must be a non-empty square array, got {adj.shape}")
        if adj.diagonal().any():
            i = int(adj.diagonal().argmax()) + 1
            raise ValueError(f"self-loop ({i},{i}) not allowed in edge set")
        adj.flags.writeable = False
        object.__setattr__(self, "adjacency", adj)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @staticmethod
    def from_edges(n: int, edges) -> "DirectedGraph":
        """The graph on nodes {1..n} with the given 1-based (i, j) edges."""
        if n < 1:
            raise ValueError(f"node count must be positive, got {n}")
        adj = np.zeros((n, n), dtype=bool)
        for i, j in edges:
            i, j = int(i), int(j)
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge ({i},{j}) out of range for n={n}")
            adj[i - 1, j - 1] = True
        return DirectedGraph(adj)

    def to_json(self) -> str:
        # argwhere is row-major: the edge list comes out sorted
        return json.dumps({"n": self.n, "edges": (np.argwhere(self.adjacency) + 1).tolist()})

    @staticmethod
    def from_json(text: str) -> "DirectedGraph":
        return DirectedGraph.from_edges(**json.loads(text))


def structure_matrix(g: DirectedGraph) -> np.ndarray:
    """Binary structure matrix: entry (i,j)=1 iff edge (i,j), diagonal all ones.

    The diagonal is included so the mask also covers the diagonal entries of
    weight matrices; assemble_Jg in fixedpoint_rank masks the A-block with it.
    """
    return np.eye(g.n) + adjacency_matrix(g)


def adjacency_matrix(g: DirectedGraph) -> np.ndarray:
    """0/1 adjacency without the diagonal."""
    return g.adjacency.astype(float)


def _reaches_all(adj: np.ndarray) -> bool:
    """True iff a frontier grown from node 1 along adj's edges reaches every node."""
    seen = frontier = np.arange(adj.shape[0]) == 0
    while frontier.any():
        frontier = (frontier @ adj) & ~seen  # boolean: one step along the edges
        seen = seen | frontier
    return bool(seen.all())


def is_strongly_connected(g: DirectedGraph) -> bool:
    """True iff every ordered node pair is joined by a directed path: node 1
    reaches every node along the edges and against them."""
    return _reaches_all(g.adjacency) and _reaches_all(g.adjacency.T)


def is_symmetric(g: DirectedGraph) -> bool:
    """True iff the edge set is closed under pair reversal."""
    return bool(np.array_equal(g.adjacency, g.adjacency.T))


def complete_graph(n: int) -> DirectedGraph:
    """All n(n-1) ordered pairs."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return DirectedGraph(~np.eye(n, dtype=bool))


def ring_graph(n: int) -> DirectedGraph:
    """Symmetric ring: edges (i, i +/- 1 mod n) stored in both directions."""
    if n < 3:
        raise ValueError("ring requires n >= 3")
    cycle = _directed_cycle(np.arange(n))
    return DirectedGraph(cycle | cycle.T)


def _directed_cycle(order: np.ndarray) -> np.ndarray:
    """Adjacency of the cycle order[0] -> order[1] -> ... -> order[0]."""
    adj = np.zeros((order.size, order.size), dtype=bool)
    adj[order[:-1], order[1:]] = adj[order[-1], order[0]] = True
    return adj


# The generators draw one uniform per free entry in row-major order with one
# rng.random(k), which equals k scalar draws bit for bit, stream state included.


def _add_symmetric_pairs(adj: np.ndarray, edge_prob: float, rng) -> DirectedGraph:
    """Add each undirected pair i < j not yet in adj, in both directions,
    with probability edge_prob (one draw per such pair, row-major)."""
    r = np.arange(adj.shape[0])
    free = (r[:, None] < r) & ~adj
    new = np.zeros_like(adj)
    new[free] = rng.random(np.count_nonzero(free)) < edge_prob
    return DirectedGraph(adj | new | new.T)


def random_strongly_connected(n: int, edge_prob: float, seed: int) -> DirectedGraph:
    """Random strongly connected digraph, deterministic per seed.

    A random Hamiltonian directed cycle guarantees strong connectivity; each
    remaining ordered pair is then added independently with probability
    edge_prob.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = np.random.default_rng(seed)
    adj = _directed_cycle(rng.permutation(n))  # a random Hamiltonian cycle
    free = ~(adj | np.eye(n, dtype=bool))
    adj[free] = rng.random(np.count_nonzero(free)) < edge_prob
    return DirectedGraph(adj)


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
        g = _add_symmetric_pairs(np.zeros((n, n), dtype=bool), edge_prob, rng)
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
    cycle = _directed_cycle(rng.permutation(n))
    return _add_symmetric_pairs(cycle | cycle.T, edge_prob, rng)
