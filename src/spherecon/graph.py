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

    @classmethod
    def _unchecked(cls, adjacency: np.ndarray) -> "DirectedGraph":
        """The graph of an (n, n) bool adjacency that a generator built with
        a false diagonal: no checks, no copy; the array becomes read-only."""
        g = object.__new__(cls)
        adjacency.flags.writeable = False
        object.__setattr__(g, "adjacency", adjacency)
        return g

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
    return DirectedGraph._unchecked(~np.eye(n, dtype=bool))


def ring_graph(n: int) -> DirectedGraph:
    """Symmetric ring: edges (i, i +/- 1 mod n) stored in both directions."""
    if n < 3:
        raise ValueError("ring requires n >= 3")
    cycle = _directed_cycles(np.arange(n)[None])[0]
    return DirectedGraph._unchecked(cycle | cycle.T)


def _directed_cycles(orders: np.ndarray) -> np.ndarray:
    """(T, n, n) adjacency stack of the cycles order[0] -> order[1] -> ...
    -> order[0], one per row of a (T, n) array of node orders."""
    count, n = orders.shape
    adj = np.zeros((count, n, n), dtype=bool)
    t = np.arange(count)
    adj[t[:, None], orders[:, :-1], orders[:, 1:]] = adj[t, orders[:, -1], orders[:, 0]] = True
    return adj


def _add_random_pairs(adj: np.ndarray, uniforms: np.ndarray, edge_prob: float,
                      symmetric: bool) -> np.ndarray:
    """Each free entry of every graph of the (T, n, n) stack adj, in
    row-major order, added where its uniform of the (T, k) draws is below
    edge_prob; every graph has exactly k free entries. Symmetric: the free
    entries are the pairs i < j not yet in adj, added in both directions;
    otherwise the ordered pairs off the diagonal not yet in adj."""
    r = np.arange(adj.shape[1])
    free = ~adj & ((r[:, None] < r) if symmetric else (r[:, None] != r))
    new = np.zeros_like(adj)
    new[free] = uniforms.reshape(-1) < edge_prob
    return adj | new | new.transpose(0, 2, 1) if symmetric else adj | new


# The generators draw one uniform per free entry in row-major order with one
# rng.random(k), which equals k scalar draws bit for bit, stream state included.


def backbone_graphs(rngs, n: int, edge_prob: float, symmetric: bool) -> np.ndarray:
    """(T, n, n) adjacency stack of random graphs, one per generator of the
    iterable rngs, each drawing a random Hamiltonian cycle (a permutation)
    and then one uniform per remaining pair. Directed: a strongly connected
    digraph, each remaining ordered pair present with probability edge_prob.
    Symmetric: the cycle and each remaining pair in both directions, a
    connected undirected graph. A cycle takes n ordered pairs, and n
    undirected pairs from n = 3 on (one at n = 2), so the count of
    remaining pairs is the same for every draw."""
    pairs = n * (n - 1) // 2 if symmetric else n * (n - 1)
    free = pairs - min(n, pairs)
    draws = [(rng.permutation(n), rng.random(free)) for rng in rngs]
    adj = _directed_cycles(np.array([order for order, _ in draws]))
    if symmetric:
        adj |= adj.transpose(0, 2, 1)
    return _add_random_pairs(adj, np.array([u for _, u in draws]), edge_prob, symmetric)


def random_strongly_connected(n: int, edge_prob: float, seed) -> DirectedGraph:
    """Random strongly connected digraph, deterministic per seed (an int or
    a Generator, which is drawn from).

    A random Hamiltonian directed cycle guarantees strong connectivity; each
    remaining ordered pair is then added independently with probability
    edge_prob.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = np.random.default_rng(seed)
    return DirectedGraph._unchecked(backbone_graphs([rng], n, edge_prob, False)[0])


def random_connected_er(n: int, edge_prob: float, seed) -> DirectedGraph:
    """Erdos-Renyi symmetric graph conditioned on connectivity, deterministic
    per seed (an int or a Generator, which is drawn from).

    Each undirected pair is present with probability edge_prob (both
    directions stored); samples are rejected until connected. Unlike the
    backbone-based generators this puts positive probability on trees, which
    matters for the rank statistics of descent-mode limits.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = np.random.default_rng(seed)
    empty = np.zeros((1, n, n), dtype=bool)
    for _ in range(100_000):
        adj = _add_random_pairs(empty, rng.random((1, n * (n - 1) // 2)), edge_prob, True)[0]
        if _reaches_all(adj):  # symmetric: reaching every node is strong connectivity
            return DirectedGraph._unchecked(adj)
    raise RuntimeError(f"no connected sample in 100000 draws (n={n}, p={edge_prob})")


def random_symmetric_connected(n: int, edge_prob: float, seed) -> DirectedGraph:
    """Random symmetric connected graph (both edge directions stored),
    deterministic per seed (an int or a Generator, which is drawn from).

    Same backbone-plus-random-pairs construction as random_strongly_connected,
    with every edge symmetrized, so the result is a connected undirected graph.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = np.random.default_rng(seed)
    return DirectedGraph._unchecked(backbone_graphs([rng], n, edge_prob, True)[0])
