"""The sphere-projection iteration: each agent replaces its state by the
normalized conical combination of its neighbors' states. Includes the
quadratic potential, the lockstep kernel behind every trajectory (`run_batch`
for a stack of trials, `run` for one), and the descent mode used to locate
non-consensus fixed points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .state import Configuration, ConfigurationClass, as_array, classify_configuration
from .tolerances import FP_TOL, MIN_ROW_NORM
from .weights import WeightMatrix, descent_matrix

MAX_ITER = 10 ** 6


def _step(entries: np.ndarray, rows: np.ndarray):
    """One update on raw rows; returns (new rows, row norms of entries@rows).

    A vanishing row image is impossible for strictly diagonally dominant
    weight matrices; it is checked here whatever the matrix.
    """
    z = entries @ rows
    norms = np.linalg.norm(z, axis=1)
    if norms.min() <= MIN_ROW_NORM:
        bad = int(np.argmin(norms)) + 1
        raise ZeroDivisionError(
            f"agent {bad}: combined state has near-zero norm, projection undefined"
        )
    return z / norms[:, None], norms


def iterate(m, c: Configuration) -> Configuration:
    """Apply the iteration map once: row i becomes the normalized i-th row of
    M X."""
    rows, _ = _step(as_array(m), c.rows)
    return Configuration(rows)


def potential(a: WeightMatrix, c: Configuration) -> float:
    """tr(X^T A X) = sum_ij a_ij x_i . x_j; maximized exactly on consensus."""
    return float(np.einsum("ij,ik,jk->", a.entries, c.rows, c.rows))


@dataclass(frozen=True)
class TrajectoryResult:
    final: Configuration
    iterations: int
    residual: float
    converged: bool
    potential_history: Optional[np.ndarray] = None
    # populated by the descent mode
    classification: Optional[ConfigurationClass] = None
    residual_weight: Optional[float] = None


@dataclass(frozen=True)
class BatchResult:
    """Per-trial outcome of a lockstep run; iterating it yields (rows, iters,
    residual, failed). potential_histories, when recorded, holds each trial's
    potential at steps 0..iters."""

    rows: np.ndarray
    iters: np.ndarray
    residual: np.ndarray
    failed: np.ndarray
    potential_histories: Optional[list] = None

    def __iter__(self):
        return iter((self.rows, self.iters, self.residual, self.failed))


def _lockstep(entries: np.ndarray, rows: np.ndarray, fp_tol: float,
              max_iter: int, weights: Optional[np.ndarray] = None) -> BatchResult:
    """The one loop over iteration steps, for a (T, n, n) stack of iteration
    matrices and a (T, n, d) stack of start rows.

    Active trials form a compact working set (matrices, rows, last residuals,
    potential weights) that is re-gathered only on a step where a trial
    leaves: by converging, by a zero-norm row image, or at max_iter. A trial's
    iteration count, residual and final rows are written only when it leaves.
    A failed trial keeps the rows it failed at and the count and residual of
    its last completed step. With weights, the potential tr(X^T W X) of each
    trial is recorded before every step.
    """
    t_count = len(rows)
    final = rows.copy()
    iters = np.zeros(t_count, dtype=int)
    residual = np.full(t_count, np.inf)
    failed = np.zeros(t_count, dtype=bool)
    idx, m, x, w = np.arange(t_count), entries, rows, weights
    res = np.full(t_count, np.inf)  # last residual of each active trial
    segments, recorded, first = [], [], 0  # potentials per working set
    for k in range(max_iter + 1 if t_count else 0):
        if w is not None:
            recorded.append(np.einsum("tij,tik,tjk->t", w, x, x))
        z = m @ x
        norms = np.sqrt(np.add.reduce(z * z, axis=2, keepdims=True))
        bad = None
        if norms.min() <= MIN_ROW_NORM:
            bad = norms.min(axis=(1, 2)) <= MIN_ROW_NORM
            norms[bad] = 1.0  # their images are discarded
        nxt = z / norms
        flat = (nxt - x).reshape(len(idx), -1)
        # one BLAS dot per trial: the same reduction as np.linalg.norm
        step = np.sqrt(np.matmul(flat[:, None, :], flat[:, :, None]))[:, 0, 0]
        if bad is None and k < max_iter and step.min() > fp_tol:
            x, res = nxt, step
            continue
        done = (step <= fp_tol) | (k == max_iter)
        if bad is not None:
            done |= bad
            step[bad] = res[bad]
        gone = idx[done]
        iters[gone] = k
        residual[gone] = step[done]
        final[gone] = x[done]
        if bad is not None:
            failed[idx[bad]] = True
            iters[idx[bad]] = max(k - 1, 0)
        if w is not None:
            segments.append((first, idx, np.array(recorded)))
            recorded, first = [], k + 1
        keep = ~done
        idx, m, x, res = idx[keep], m[keep], nxt[keep], step[keep]
        if w is not None:
            w = w[keep]
        if not len(idx):
            break
    histories = None
    if weights is not None:
        table = np.empty((first, t_count))
        for start, ids, block in segments:
            table[start:start + len(block), ids] = block
        histories = [table[:iters[t] + 1, t] for t in range(t_count)]
    return BatchResult(final, iters, residual, failed, histories)


def run(m, c0: Configuration, fp_tol: float = FP_TOL, max_iter: int = MAX_ITER,
        a_for_potential: Optional[WeightMatrix] = None) -> TrajectoryResult:
    """Iterate until the fixed-point residual ||f(x) - x||_2 drops to fp_tol
    or max_iter steps have been taken. With a_for_potential, records its
    potential at every visited configuration. A lockstep run of one trial; a
    zero-norm row image raises ZeroDivisionError naming the agent."""
    entries = as_array(m)
    weights = None if a_for_potential is None else a_for_potential.entries[None]
    out = _lockstep(entries[None], c0.rows[None], fp_tol, max_iter, weights)
    if out.failed[0]:
        _step(entries, out.rows[0])  # raises, naming the agent
    residual = float(out.residual[0])
    return TrajectoryResult(
        final=Configuration(out.rows[0]),
        iterations=int(out.iters[0]),
        residual=residual,
        converged=residual <= fp_tol,
        potential_history=None if weights is None else out.potential_histories[0],
    )


def run_batch(entries: np.ndarray, rows: np.ndarray, fp_tol: float = FP_TOL,
              max_iter: int = MAX_ITER,
              potential_weights: Optional[np.ndarray] = None) -> BatchResult:
    """Run many independent trajectories of the same shape in lockstep.

    entries is a (T, n, n) stack of iteration matrices and rows a (T, n, d)
    stack of start configurations; potential_weights, a (T, n, n) stack,
    records each trial's potential at every visited configuration. Trial t's
    final rows, iteration count, residual and potential history equal those
    of `run` on entries[t] from the rows rows[t] bit for bit; a trial whose
    row image vanishes is flagged in `failed` instead of raising.
    """
    return _lockstep(np.asarray(entries, dtype=float), np.asarray(rows, dtype=float),
                     fp_tol, max_iter, potential_weights)


def fixed_point_residual(m, c: Configuration) -> float:
    """||f(x) - x||_2 for the iteration driven by m."""
    rows, _ = _step(as_array(m), c.rows)
    return float(np.linalg.norm(rows - c.rows))


def find_nonconsensus_fixed_point(a: WeightMatrix, c0: Configuration,
                                  slack: float = 0.25,
                                  max_iter: int = MAX_ITER) -> TrajectoryResult:
    """Run the iteration with the descent matrix alpha*I - A instead of A.

    For symmetric A this descends the potential tr(X^T A X), so converged
    limits are non-consensus fixed points of the descent iteration. The
    result records both the descent residual and the residual under A itself
    (the latter need not be small), plus the limit's classification.
    """
    res = run(descent_matrix(a, slack), c0, max_iter=max_iter)
    return replace(res, classification=classify_configuration(res.final),
                   residual_weight=fixed_point_residual(a, res.final))
