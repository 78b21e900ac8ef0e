"""Weight matrices with graph zero-structure, dominance predicates, sampling,
row normalization, and the descent matrix used to hunt non-consensus fixed
points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import DirectedGraph, is_symmetric

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class WeightMatrix:
    """Non-negative n x n matrix whose off-diagonal positivity pattern matches
    the graph's edge set."""

    entries: np.ndarray
    graph: DirectedGraph

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        n = self.graph.n
        if a.shape != (n, n):
            raise ValueError(f"entries shape {a.shape} does not match n={n}")
        if np.any(a < 0):
            raise ValueError("weight matrix entries must be non-negative")
        bad = np.argwhere(((a > 0) != self.graph.adjacency) & ~np.eye(n, dtype=bool))
        if len(bad):
            i, j = bad[0] + 1
            raise ValueError(f"entry ({i},{j}) violates the graph zero-structure")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @classmethod
    def _unchecked(cls, entries: np.ndarray, graph: DirectedGraph) -> "WeightMatrix":
        """The weight matrix of float entries that a sampler built on the
        graph's zero structure: no checks, no copy; the array becomes
        read-only."""
        w = object.__new__(cls)
        entries.flags.writeable = False
        object.__setattr__(w, "entries", entries)
        object.__setattr__(w, "graph", graph)
        return w

    @property
    def n(self) -> int:
        return self.graph.n

    def is_symmetric(self) -> bool:
        """Exact symmetry: the symmetric-only certificate paths need a == a^T."""
        return bool(np.array_equal(self.entries, self.entries.T))


@dataclass(frozen=True)
class DescentMatrix:
    """alpha*I - A for a weight matrix A, with alpha above every row sum.

    Not a weight matrix itself (off-diagonals are <= 0); symmetric and
    positive definite whenever the source is symmetric.
    """

    entries: np.ndarray
    alpha: float
    source: WeightMatrix

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float).copy()
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.source.n


def is_strictly_diagonally_dominant(a: WeightMatrix) -> bool:
    """Every diagonal entry strictly exceeds the sum of the rest of its row."""
    m = a.entries
    off = m.sum(axis=1) - np.diag(m)
    return bool(np.all(np.diag(m) > off))


def satisfies_sqrt2_condition(a: WeightMatrix) -> bool:
    """a_ii > sqrt(2) * sum_{j != i} a_ij for every row i."""
    m = a.entries
    off = m.sum(axis=1) - np.diag(m)
    return bool(np.all(np.diag(m) > _SQRT2 * off))


def sdd_entries(adjacency: np.ndarray, margin: float, symmetric, rngs) -> np.ndarray:
    """(T, n, n) stack of random strictly diagonally dominant entries, one
    per graph of the (T, n, n) adjacency stack and generator of the
    iterable rngs; symmetric is a bool or one per graph, and a symmetric
    graph's adjacency must be symmetric.

    Off-diagonal edge entries are i.i.d. uniform on (0,1], one draw per edge
    in row-major order (symmetrized by averaging the two directed draws when
    symmetric); each diagonal entry is (1+margin) times its off-diagonal row
    sum, so the dominance margin is exact.
    """
    edges = np.count_nonzero(adjacency, axis=(1, 2))
    a = np.zeros(adjacency.shape)
    # one uniform on (0, 1] per edge, row-major
    a[adjacency] = 1.0 - np.concatenate([rng.random(k) for rng, k in zip(rngs, edges)])
    a = np.where(np.reshape(symmetric, (-1, 1, 1)), 0.5 * (a + a.transpose(0, 2, 1)), a)
    off = a.sum(axis=2)
    # isolated nodes have zero off-diagonal sum; give them a unit diagonal
    r = np.arange(a.shape[1])
    a[:, r, r] = np.where(off > 0, (1.0 + margin) * off, 1.0)
    return a


def sample_sdd(g: DirectedGraph, margin: float, symmetric: bool, seed) -> WeightMatrix:
    """Random strictly diagonally dominant weight matrix for g, deterministic
    per seed (an int or a Generator, which is drawn from); see sdd_entries.
    margin >= sqrt(2)-1 plus any slack also yields the sqrt(2) condition.
    """
    if margin <= 0:
        raise ValueError("margin must be > 0")
    if symmetric and not is_symmetric(g):
        raise ValueError("symmetric sampling requires a symmetric graph")
    rng = np.random.default_rng(seed)
    return WeightMatrix._unchecked(sdd_entries(g.adjacency[None], margin, symmetric, [rng])[0], g)


def descent_matrix(a: WeightMatrix, slack: float = 0.25) -> DescentMatrix:
    """alpha*I - A with alpha = (1+slack) * max row sum of A."""
    if slack <= 0:
        raise ValueError("slack must be > 0")
    alpha = (1.0 + slack) * float(a.entries.sum(axis=1).max())
    return DescentMatrix(alpha * np.eye(a.n) - a.entries, alpha, a)


def left_scale_normalize(a: WeightMatrix) -> WeightMatrix:
    """Divide each row by its diagonal entry; trajectories are unchanged.

    Left multiplication by a positive diagonal matrix does not affect the
    iteration, so this is a pure reparametrization with unit diagonal.
    """
    diag = a.entries.diagonal()
    if np.any(diag <= 0):
        raise ValueError("left_scale_normalize requires positive diagonal entries")
    return WeightMatrix(a.entries / diag[:, None], a.graph)
