"""Configurations of n unit vectors in R^d, vectorization conventions,
tangent-space bases, projections, and rank/consensus classification.

The vectorized view x of a configuration X stacks the rows agent-major,
x = [x_1; x_2; ...; x_n] = vec(X^T), so Kronecker products of the form
(A ot I_d) act blockwise on agents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

RANK_TOL = 1e-8
CONSENSUS_TOL = 1e-9


@dataclass(frozen=True)
class Configuration:
    """n unit rows in R^d."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.array(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] < 2:
            raise ValueError("rows must be an n x d array with d >= 2")
        norms = np.linalg.norm(rows, axis=1)
        if np.any(norms <= 1e-14):
            bad = int(np.argmin(norms)) + 1
            raise ValueError(f"row {bad} has near-zero norm")
        rows /= norms[:, None]
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    @property
    def vector(self) -> np.ndarray:
        """Agent-major vectorization vec(X^T)."""
        return self.rows.reshape(-1)

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "d": self.d, "rows": self.rows.tolist()})

    @staticmethod
    def from_json(text: str) -> "Configuration":
        obj = json.loads(text)
        return Configuration(np.asarray(obj["rows"], dtype=float))


def unvec(x: np.ndarray, n: int, d: int) -> np.ndarray:
    """Inverse of Configuration.vector: agent-major vector back to n x d rows."""
    return np.asarray(x, dtype=float).reshape(n, d)


@dataclass(frozen=True)
class TangentBasis:
    """Per-agent orthonormal bases of the sphere tangent spaces.

    blocks is an (n, d, d-1) array (a sequence of d x (d-1) blocks is
    stacked); blocks[i] has orthonormal columns orthogonal to row i.
    """

    blocks: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "blocks", np.asarray(self.blocks, dtype=float))

    @property
    def n(self) -> int:
        return self.blocks.shape[0]

    @property
    def d(self) -> int:
        return self.blocks.shape[1]

    def block_diagonal(self) -> np.ndarray:
        """The nd x n(d-1) block-diagonal aggregate."""
        return block_diagonal_matrix(self.blocks)


def normalize_rows(raw: np.ndarray) -> Configuration:
    """Divide each row by its norm; rejects near-zero rows."""
    return Configuration(np.asarray(raw, dtype=float))


def random_configuration(n: int, d: int, seed) -> Configuration:
    """Rows i.i.d. uniform on the unit sphere (normalized Gaussians)."""
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    rng = np.random.default_rng(seed)
    return Configuration(rng.standard_normal((n, d)))


def consensus_configuration(n: int, xbar: np.ndarray) -> Configuration:
    """All n rows equal to the unit vector xbar."""
    xbar = np.asarray(xbar, dtype=float)
    nrm = np.linalg.norm(xbar)
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"xbar must be a unit vector, got norm {nrm}")
    return Configuration(np.tile(xbar / nrm, (n, 1)))


def numerical_rank(c: Configuration, tol: float = RANK_TOL) -> int:
    """Number of singular values of X above tol times the largest."""
    s = np.linalg.svd(c.rows, compute_uv=False)
    return int(np.sum(s > tol * s[0]))


@dataclass(frozen=True)
class ConfigurationClass:
    """Classification of a configuration: consensus, antipodal rank-one, or
    higher rank (with the numerical rank)."""

    kind: str  # "consensus" | "antipodal" | "higher-rank"
    rank: int

    @property
    def is_consensus(self) -> bool:
        return self.kind == "consensus"


def classify_configuration(c: Configuration, tol: float = CONSENSUS_TOL,
                           rank_tol: float = RANK_TOL) -> ConfigurationClass:
    """Consensus iff all pairwise row dot products are >= 1 - tol; otherwise
    antipodal if X has numerical rank one; otherwise higher-rank."""
    gram = c.rows @ c.rows.T
    if gram.min() >= 1.0 - tol:
        return ConfigurationClass("consensus", 1)
    m = numerical_rank(c, rank_tol)
    if m == 1:
        return ConfigurationClass("antipodal", 1)
    return ConfigurationClass("higher-rank", m)


def tangent_projectors(rows: np.ndarray) -> np.ndarray:
    """(n, d, d) stack of the tangent projectors I - x_i x_i^T of unit rows.

    Every block-diagonal projector of the linearization is assembled from
    this stack by block_diagonal_matrix.
    """
    return np.eye(rows.shape[1]) - rows[:, :, None] * rows[:, None, :]


def block_diagonal_matrix(blocks: np.ndarray) -> np.ndarray:
    """np x nq matrix with the (n, p, q) blocks on its block diagonal."""
    n, p, q = blocks.shape
    out = np.zeros((n, p, n, q))
    out[np.arange(n), :, np.arange(n), :] = blocks
    return out.reshape(n * p, n * q)


def tangent_basis(c: Configuration) -> TangentBasis:
    """Per-agent orthonormal tangent bases, deterministic in the rows.

    d = 2 uses the quarter-turn [x2, -x1]. For d >= 3, reflect each row onto
    a signed first coordinate axis with a Householder matrix and keep its last
    d-1 columns, which are orthonormal and orthogonal to the row.
    """
    rows = c.rows
    if c.d == 2:
        return TangentBasis(np.stack([rows[:, 1], -rows[:, 0]], axis=1)[:, :, None])
    v = rows.copy()
    v[:, 0] -= np.where(rows[:, 0] < 0, 1.0, -1.0)  # reflect away from x_i for stability
    outer = v[:, :, None] * v[:, None, :]
    h = np.eye(c.d) - 2.0 * outer / (v[:, None, :] @ v[:, :, None])
    return TangentBasis(h[:, :, 1:])


def projection_matrix(c: Configuration) -> np.ndarray:
    """Block-diagonal tangent projector with blocks I - x_i x_i^T."""
    return block_diagonal_matrix(tangent_projectors(c.rows))


def as_array(obj) -> np.ndarray:
    """The float array behind a Configuration (its rows), a weight or descent
    matrix (its entries), or anything numpy converts."""
    if isinstance(obj, Configuration):
        return obj.rows
    return np.asarray(getattr(obj, "entries", obj), dtype=float)
