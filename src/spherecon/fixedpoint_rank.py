"""Parametric fixed-point analysis: the residual map g(A, D, x), Jacobian
assembly with respect to (A, D, x), and the rank checks behind the
measure-zero statements for weight matrices. A non-symmetric A-block comes as
a factor with its Gram matrix, not as its columns: all computed from it (rank,
singular values, left null residuals) depends only on J J^T. The duplication
matrix is kept as the dense reference of the symmetric A-block.

Conventions: the residual and its Jacobian act on agent-major vectors
(row-major flattening of the state matrix). D here stores the row norms of
A X (the reciprocals of the normalization diagonal used by the iteration),
because the residual uses D as a multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import _step
from .graph import DirectedGraph, structure_matrix
from .state import (Configuration, agent_blocks, as_array, block_diagonal_matrix,
                    relative_rank, tangent_projectors)
from .tolerances import PIN_TOL
from .weights import WeightMatrix


def compute_D(a, c) -> np.ndarray:
    """Row norms of A X; the unique positive diagonal making the residual
    vanish when x is a fixed point. A vanishing row image raises
    ZeroDivisionError naming the agent."""
    _, norms = _step(as_array(a), as_array(c))
    return norms


def residual_g(a, dvec, c) -> np.ndarray:
    """(A ot I) x - (D ot I) x as an agent-major vector."""
    rows = as_array(c)
    dvec = np.asarray(dvec, dtype=float)
    return (as_array(a) @ rows - dvec[:, None] * rows).reshape(-1)


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
    return c.T[np.triu_indices(c.shape[0])]


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


def pin_configuration(c: Configuration):
    """Rotate a configuration so its state matrix has its last d - m columns
    zero and its first row equal to the first coordinate axis, then drop the
    zero columns. Returns (pinned n x m array, m)."""
    rows = c.rows
    u, s, vt = np.linalg.svd(rows, full_matrices=False)
    m = relative_rank(s)
    xm = rows @ vt[:m].T
    # reflect the first row onto e_1 within R^m
    x1 = xm[0] / np.linalg.norm(xm[0])
    e1 = np.zeros(m)
    e1[0] = 1.0
    if np.linalg.norm(x1 - e1) > PIN_TOL:
        v = x1 - e1
        hm = np.eye(m) - 2.0 * np.outer(v, v) / (v @ v)
        xm = xm @ hm
    xm /= np.linalg.norm(xm, axis=1)[:, None]
    return xm, m


def build_fixed_point_system(a: WeightMatrix, c: Configuration) -> FixedPointSystem:
    """Pin a configuration and pair it with the diagonal multiplier that
    annihilates the residual at fixed points."""
    xm, m = pin_configuration(c)
    entries = np.asarray(a.entries)
    return FixedPointSystem(entries, compute_D(entries, xm), xm, m)


@dataclass(frozen=True)
class JgParts:
    """Column blocks of the residual Jacobian; a non-symmetric a_part is a
    factor with the A-block's Gram matrix, not its columns (assemble_Jg)."""

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

    When A is constrained symmetric the A-block acts on the n(n+1)/2 entries
    of vech(A) and equals (I_n ot X^T) times the duplication matrix.
    Otherwise a_part is a factor of the A-block, not its columns: row block i
    of (I_n ot X^T) on a row-major vec(A), masked by the graph (None means
    complete), has Gram matrix (S_i X)^T S_i X = R_i^T R_i, with S_i X the
    rows of agent i's closed neighbours (the rest zeroed) and R_i its m x m QR
    factor. The block diagonal of the R_i^T, nm x nm in place of nm x n^2,
    gives the same J J^T, hence singular values, rank and left null space.
    The D-block acts on the n entries of D: column i is -e_i ot x_i. The
    x-block is ((A - D) ot I_m) projected onto the tangent spaces, with the
    first agent's tangent directions removed (the pinning freezes that row).
    """
    n, m, x = sys.n, sys.m, sys.x
    if symmetric:
        # column (lo, hi) of vech order holds x_hi in row block lo and x_lo
        # in row block hi (one x_lo when lo == hi)
        lo, hi = np.triu_indices(n)
        a_part = np.zeros((n, m, lo.size))
        a_part[lo, :, np.arange(lo.size)] = x[hi]
        a_part[hi, :, np.arange(lo.size)] = x[lo]
        a_part = a_part.reshape(n * m, -1)
    else:
        # R of X, or one batched QR of each agent's zero-padded neighbour rows
        rows = x if graph is None else structure_matrix(graph)[:, :, None] * x
        r = np.broadcast_to(np.linalg.qr(rows, mode="r"), (n, m, m))
        a_part = block_diagonal_matrix(r.transpose(0, 2, 1))
    d_part = block_diagonal_matrix((0.0 - x)[:, :, None])
    x_full = agent_blocks(sys.a - np.diag(sys.dvec), tangent_projectors(x))
    x_part = x_full[:, m:]  # drop the pinned first agent's directions
    return JgParts(a_part, d_part, x_part)


def _singular_values(mat: np.ndarray) -> np.ndarray:
    """Singular values of mat in descending order. A wide matrix is first
    reduced to the square R of a QR factorization of its transpose, which has
    the same singular values: one Householder pass over the long side, then
    an SVD of a min(shape) square."""
    if mat.shape[0] < mat.shape[1]:
        mat = np.linalg.qr(mat.T, mode="r")
    return np.linalg.svd(mat, compute_uv=False)


def matrix_rank(mat: np.ndarray) -> int:
    return relative_rank(_singular_values(mat))


def skew_null_vectors(sys: FixedPointSystem) -> np.ndarray:
    """The m(m-1)/2 agent-major vectors built from skew rotations of the
    pinned state matrix; at fixed points of the symmetric parametrization they
    span a left null space of the residual Jacobian."""
    n, m, x = sys.n, sys.m, sys.x
    p, q = np.triu_indices(m, 1)
    vecs = np.zeros((p.size, n, m))
    # X R^T with R_pq = 1 = -R_qp; + 0.0 and 0.0 - give that product's +0.0
    vecs[np.arange(p.size), :, p] = x[:, q].T + 0.0
    vecs[np.arange(p.size), :, q] = 0.0 - x[:, p].T
    return vecs.reshape(p.size, n * m)


@dataclass(frozen=True)
class RankDeficiencyReport:
    n: int
    m: int
    rank: int
    bound: int
    satisfied: bool
    min_singular_value: float
    null_residual: float  # max |v^T Jg| over the skew null vectors v


def symmetric_rank_deficiency_check(sys: FixedPointSystem) -> RankDeficiencyReport:
    """Rank of the symmetric-parametrization Jacobian against the bound
    nm - m(m-1)/2 (complete graph), and the skew null vectors' residual."""
    jg = assemble_Jg(sys, symmetric=True).full
    s = _singular_values(jg)
    rank = relative_rank(s)
    bound = sys.n * sys.m - sys.m * (sys.m - 1) // 2
    return RankDeficiencyReport(
        n=sys.n, m=sys.m, rank=rank, bound=bound,
        satisfied=rank <= bound, min_singular_value=float(s[-1]),
        null_residual=float(np.abs(skew_null_vectors(sys) @ jg).max(initial=0.0)),
    )
