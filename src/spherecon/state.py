"""Configurations of n unit vectors in R^d, vectorization conventions,
tangent-space bases, projections, and rank/consensus classification.

The vectorized view x of a configuration X stacks the rows agent-major,
x = [x_1; x_2; ...; x_n] = vec(X^T), so (A ot I_d) acts blockwise on agents;
agent_blocks assembles every linearization as such a grid of agent blocks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .tolerances import CONSENSUS_TOL, MIN_ROW_NORM, RANK_TOL, UNIT_NORM_TOL


@dataclass(frozen=True)
class Configuration:
    """n unit rows in R^d: each row of the given array divided by its norm;
    a row whose norm is at most MIN_ROW_NORM, NaN or infinite is rejected."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] < 2:
            raise ValueError("rows must be an n x d array with d >= 2")
        rows = unit_rows(rows)
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _unchecked(cls, rows: np.ndarray) -> "Configuration":
        """The configuration of unit rows the package made (`unit_rows`,
        `dynamics._step`, `dynamics.run_batch`): no normalization, no copy;
        the array becomes read-only. Rows from outside take the checks."""
        c = object.__new__(cls)
        rows.flags.writeable = False
        object.__setattr__(c, "rows", rows)
        return c

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    @property
    def vector(self) -> np.ndarray:
        """Agent-major vectorization vec(X^T); reshape(n, d) inverts it."""
        return self.rows.reshape(-1)

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "d": self.d, "rows": self.rows.tolist()})

    @staticmethod
    def from_json(text: str) -> "Configuration":
        obj = json.loads(text)
        return Configuration(np.asarray(obj["rows"], dtype=float))


def column_sums(x: np.ndarray) -> np.ndarray:
    """A new array of the sums over the last axis, added one column at a
    time, left to right: numpy's own order below 8 columns, where
    `np.add.reduce` starts to add in pairs, and one order at any width."""
    total = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        total += x[..., j]
    return total


def unit_rows(rows) -> np.ndarray:
    """A new array of the rows (along the last axis) each divided by its
    norm. A row whose norm is at most MIN_ROW_NORM, NaN or infinite is
    rejected by name: its trial in a stack, counted from 0 as in the error
    of `dynamics._step`, and its row, counted from 1."""
    rows = np.array(rows, dtype=float)
    norms = np.linalg.norm(rows, axis=-1)
    usable = (norms > MIN_ROW_NORM) & (norms < np.inf)  # false on NaN too
    if not usable.all():
        first = np.unravel_index(np.argmin(usable), usable.shape)
        *trial, row = first
        kind = "near-zero" if norms[first] <= MIN_ROW_NORM else "non-finite"
        raise ValueError("".join(f"trial {t}, " for t in trial)
                         + f"row {row + 1} has {kind} norm")
    rows /= norms[..., None]
    return rows


@dataclass(frozen=True)
class TangentBasis:
    """Per-agent orthonormal bases of the sphere tangent spaces.

    blocks is an (n, d, d-1) array (a sequence of d x (d-1) blocks is
    stacked), or a stack of them with leading batch axes; blocks[..., i, :, :]
    has orthonormal columns orthogonal to row i.
    """

    blocks: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "blocks", np.asarray(self.blocks, dtype=float))

    @property
    def n(self) -> int:
        return self.blocks.shape[-3]

    @property
    def d(self) -> int:
        return self.blocks.shape[-2]

    def block_diagonal(self) -> np.ndarray:
        """The nd x n(d-1) block-diagonal aggregate."""
        return block_diagonal_matrix(self.blocks)


def start_rows(rngs, n: int, d: int) -> np.ndarray:
    """(T, n, d) stack of rows i.i.d. uniform on the unit sphere, one
    standard normal (n, d) draw per generator of the iterable rngs, each row
    divided by its norm (`unit_rows`, which rejects an unusable row)."""
    return unit_rows(np.array([rng.standard_normal((n, d)) for rng in rngs]))


def random_configuration(n: int, d: int, seed) -> Configuration:
    """Rows i.i.d. uniform on the unit sphere (normalized Gaussians),
    deterministic per seed (an int or a Generator, which is drawn from)."""
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    return Configuration._unchecked(start_rows([np.random.default_rng(seed)], n, d)[0])


def consensus_configuration(n: int, xbar: np.ndarray) -> Configuration:
    """All n rows equal to the unit vector xbar."""
    xbar = np.asarray(xbar, dtype=float)
    nrm = np.linalg.norm(xbar)
    if abs(nrm - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"xbar must be a unit vector, got norm {nrm}")
    return Configuration(np.tile(xbar / nrm, (n, 1)))


def relative_rank(s: np.ndarray, tol: float = RANK_TOL):
    """Number of the descending singular values s above tol times the
    largest; 0 when s is empty or all zero. For a stack of them along the
    last axis, an array of one rank each."""
    ranks = (s > tol * s[..., :1]).sum(-1)
    return int(ranks) if ranks.ndim == 0 else ranks


def numerical_rank(c: Configuration, tol: float = RANK_TOL) -> int:
    """Number of singular values of X above tol times the largest."""
    return relative_rank(np.linalg.svd(c.rows, compute_uv=False), tol)


@dataclass(frozen=True)
class ConfigurationClass:
    """Classification of a configuration: consensus, antipodal rank-one, or
    higher rank (with the numerical rank)."""

    kind: str  # "consensus" | "antipodal" | "higher-rank"
    rank: int

    @property
    def is_consensus(self) -> bool:
        return self.kind == "consensus"


def classify_configuration(c: Configuration,
                           rank_tol: float = RANK_TOL) -> ConfigurationClass:
    """Consensus iff all pairwise row dot products are >= 1 - CONSENSUS_TOL;
    otherwise antipodal if X has numerical rank one (relative cutoff
    rank_tol); otherwise higher-rank."""
    gram = c.rows @ c.rows.T
    if gram.min() >= 1.0 - CONSENSUS_TOL:
        return ConfigurationClass("consensus", 1)
    m = numerical_rank(c, rank_tol)
    if m == 1:
        return ConfigurationClass("antipodal", 1)
    return ConfigurationClass("higher-rank", m)


def tangent_projectors(rows: np.ndarray) -> np.ndarray:
    """(n, d, d) stack of the tangent projectors I - x_i x_i^T of unit rows;
    every linearization takes its projector blocks from this stack.
    """
    return np.eye(rows.shape[1]) - rows[:, :, None] * rows[:, None, :]


def agent_blocks(coeffs: np.ndarray, right: np.ndarray, left=None) -> np.ndarray:
    """(..., n p, n q) matrix whose block (i, j) is c_ij (L_i @ R_j), or
    c_ij R_j without left factors, from (..., n, n) coefficients, (..., n, k, q)
    right and (..., n, p, k) left blocks; leading batch axes are kept. With
    diagonal left and right blocks this is blockdiag(L) (C ot I) blockdiag(R).
    """
    if left is None:
        blocks = coeffs[..., None, None] * right[..., None, :, :, :]
    else:
        blocks = np.matmul(left[..., :, None, :, :], right[..., None, :, :, :])
        blocks *= coeffs[..., None, None]  # in place: no second n^2 p q temporary
    *lead, n, _, p, q = blocks.shape
    return blocks.swapaxes(-3, -2).reshape(*lead, n * p, n * q)


def block_diagonal_matrix(blocks: np.ndarray) -> np.ndarray:
    """np x nq matrix with the (n, p, q) blocks on its block diagonal."""
    n, p, q = blocks.shape
    out = np.zeros((n, p, n, q))
    out[np.arange(n), :, np.arange(n), :] = blocks
    return out.reshape(n * p, n * q)


def tangent_basis(c) -> TangentBasis:
    """Per-agent orthonormal tangent bases, deterministic in the rows: of a
    Configuration, or of a (..., n, d) stack of unit rows, whose leading axes
    the blocks keep.

    d = 2 uses the quarter-turn [x2, -x1]. For d >= 3, reflect each row onto
    a signed first coordinate axis with a Householder matrix and keep its last
    d-1 columns, which are orthonormal and orthogonal to the row.
    """
    rows = as_array(c)
    d = rows.shape[-1]
    if d == 2:
        return TangentBasis(np.stack([rows[..., 1], -rows[..., 0]], axis=-1)[..., None])
    v = rows.copy()
    v[..., 0] -= np.where(rows[..., 0] < 0, 1.0, -1.0)  # reflect away from x_i for stability
    outer = v[..., :, None] * v[..., None, :]
    h = np.eye(d) - 2.0 * outer / (v[..., None, :] @ v[..., :, None])
    return TangentBasis(h[..., 1:])


def as_array(obj) -> np.ndarray:
    """The float array behind a Configuration (its rows), a weight or descent
    matrix (its entries), or anything numpy converts."""
    if isinstance(obj, Configuration):
        return obj.rows
    return np.asarray(getattr(obj, "entries", obj), dtype=float)
