"""Parametric fixed-point analysis: the residual map g(A, D, x), structure
masks, the duplication matrix, Jacobian assembly with respect to (A, D, x),
and the rank checks behind the measure-zero statements for weight matrices.

Conventions: the residual and its Jacobian act on agent-major vectors
(row-major flattening of the state matrix). D here stores the row norms of
A X (the reciprocals of the normalization diagonal used by the iteration),
because the residual uses D as a multiplier.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import DirectedGraph, structure_matrix
from .state import (Configuration, as_array, block_diagonal_matrix,
                    tangent_projectors)
from .weights import WeightMatrix

RANK_RTOL = 1e-8


def compute_D(a, c) -> np.ndarray:
    """Row norms of A X; the unique positive diagonal making the residual
    vanish when x is a fixed point."""
    norms = np.linalg.norm(as_array(a) @ as_array(c), axis=1)
    if norms.min() <= 1e-14:
        raise ZeroDivisionError("a row image of the configuration vanishes")
    return norms


def residual_g(a, dvec, c) -> np.ndarray:
    """(A ot I) x - (D ot I) x as an agent-major vector."""
    rows = as_array(c)
    dvec = np.asarray(dvec, dtype=float)
    return (as_array(a) @ rows - dvec[:, None] * rows).reshape(-1)


def structure_masks(g: DirectedGraph):
    """Diagonals (k_A, k_D), as length-n^2 0/1 vectors, of the projections
    K_A and K_D onto the free entries of a row-major vec(A).

    k_A is the row-major flattening of the binary structure matrix (which
    carries a unit diagonal, so the element-wise product of k_A and k_D is
    k_D). k_D selects the diagonal positions.
    """
    return structure_matrix(g).reshape(-1), np.eye(g.n).reshape(-1)


def duplication_matrix(n: int) -> np.ndarray:
    """0/1 matrix mapping the half-vectorization of a symmetric matrix (lower
    triangle stacked column-wise, diagonal included) to its full column-wise
    vectorization."""
    if n < 1:
        raise ValueError("n must be >= 1")
    j, i = np.divmod(np.arange(n * n), n)  # row j*n + i holds entry (i, j)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    # entry (hi, lo) of the lower triangle follows the lo columns before it
    col = lo * (2 * n - lo + 1) // 2 + hi - lo
    dup = np.zeros((n * n, n * (n + 1) // 2))
    dup[np.arange(n * n), col] = 1.0
    return dup


def vech(c: np.ndarray) -> np.ndarray:
    """Lower triangle (diagonal included) stacked column-wise."""
    n = c.shape[0]
    return np.concatenate([c[j:, j] for j in range(n)])


@dataclass(frozen=True)
class FixedPointSystem:
    """A pinned representative of a fixed point: rank-m state matrix with the
    first row at the first coordinate axis, the weight matrix, and the
    diagonal multiplier."""

    a: np.ndarray          # n x n
    dvec: np.ndarray       # n row norms of A X
    x: np.ndarray          # n x m pinned state matrix, unit rows
    m: int

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def residual(self) -> float:
        return float(np.abs(residual_g(self.a, self.dvec, self.x)).max())


def pin_configuration(c: Configuration, rank_tol: float = RANK_RTOL):
    """Rotate a configuration so its state matrix has its last d - m columns
    zero and its first row equal to the first coordinate axis, then drop the
    zero columns. Returns (pinned n x m array, m)."""
    rows = c.rows
    u, s, vt = np.linalg.svd(rows, full_matrices=False)
    m = int(np.sum(s > rank_tol * s[0]))
    xm = rows @ vt[:m].T
    # reflect the first row onto e_1 within R^m
    x1 = xm[0] / np.linalg.norm(xm[0])
    e1 = np.zeros(m)
    e1[0] = 1.0
    if np.linalg.norm(x1 - e1) > 1e-14:
        v = x1 - e1
        hm = np.eye(m) - 2.0 * np.outer(v, v) / (v @ v)
        xm = xm @ hm
    xm /= np.linalg.norm(xm, axis=1)[:, None]
    return xm, m


def build_fixed_point_system(a: WeightMatrix, c: Configuration,
                             rank_tol: float = RANK_RTOL) -> FixedPointSystem:
    """Pin a configuration and pair it with the diagonal multiplier that
    annihilates the residual at fixed points."""
    xm, m = pin_configuration(c, rank_tol)
    entries = np.asarray(a.entries)
    return FixedPointSystem(entries, compute_D(entries, xm), xm, m)


@dataclass(frozen=True)
class JgParts:
    a_part: np.ndarray
    d_part: np.ndarray
    x_part: np.ndarray

    @property
    def full(self) -> np.ndarray:
        return np.hstack([self.a_part, self.d_part, self.x_part])


def assemble_Jg(sys: FixedPointSystem, symmetric: bool,
                graph: Optional[DirectedGraph] = None) -> JgParts:
    """First-order expansion of the residual in (A, D, x) at a pinned fixed
    point.

    The A-block is (I_n ot X^T) masked by the graph structure, or composed
    with the duplication matrix when A is constrained symmetric; the D-block
    is -(I_n ot X^T) restricted to diagonal positions; the x-block is
    ((A - D) ot I_m) projected onto the tangent spaces, with the first
    agent's tangent directions removed (the pinning freezes that row).
    graph=None means the complete graph (no masking of the A-block).
    """
    n, m = sys.n, sys.m
    ixt = np.kron(np.eye(n), sys.x.T)  # nm x n^2, acts on row-major vec(A)
    if symmetric:
        a_part = ixt @ duplication_matrix(n)
    elif graph is None:
        a_part = ixt
    else:
        k_a, _ = structure_masks(graph)
        a_part = ixt * k_a + 0.0
    # + 0.0 makes the -0.0 of a masked negative entry +0.0, as the product
    # with the diagonal K_A or K_D does: LAPACK reads the sign of a zero
    d_part = -ixt * np.eye(n).reshape(-1) + 0.0
    x_full = (np.kron(sys.a - np.diag(sys.dvec), np.eye(m))
              @ block_diagonal_matrix(tangent_projectors(sys.x)))
    x_part = x_full[:, m:]  # drop the pinned first agent's directions
    return JgParts(a_part, d_part, x_part)


def matrix_rank(mat: np.ndarray, rtol: float = RANK_RTOL) -> int:
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def skew_null_vectors(sys: FixedPointSystem) -> np.ndarray:
    """The m(m-1)/2 agent-major vectors built from skew rotations of the
    pinned state matrix; at fixed points of the symmetric parametrization they
    span a left null space of the residual Jacobian."""
    n, m = sys.n, sys.m
    vecs = []
    for p in range(m):
        for q in range(p + 1, m):
            r0 = np.zeros((m, m))
            r0[p, q], r0[q, p] = 1.0, -1.0
            vecs.append((sys.x @ r0.T).reshape(-1))
    return np.asarray(vecs).reshape(len(vecs), n * m)


@dataclass(frozen=True)
class RankDeficiencyReport:
    n: int
    m: int
    symmetric: bool
    rank: int
    bound: int
    satisfied: bool
    min_singular_value: float

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n, "m": self.m, "symmetric": self.symmetric,
            "rank": self.rank, "bound": self.bound, "satisfied": self.satisfied,
            "min_singular_value": self.min_singular_value,
        })


def symmetric_rank_deficiency_check(sys: FixedPointSystem,
                                    rtol: float = RANK_RTOL) -> RankDeficiencyReport:
    """Rank of the symmetric-parametrization Jacobian against the bound
    nm - m(m-1)/2 (complete graph)."""
    parts = assemble_Jg(sys, symmetric=True)
    full = parts.full
    s = np.linalg.svd(full, compute_uv=False)
    rank = int(np.sum(s > rtol * s[0]))
    bound = sys.n * sys.m - sys.m * (sys.m - 1) // 2
    return RankDeficiencyReport(
        n=sys.n, m=sys.m, symmetric=True, rank=rank, bound=bound,
        satisfied=rank <= bound, min_singular_value=float(s[-1]),
    )
