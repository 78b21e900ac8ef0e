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
from .tolerances import FP_TOL, MIN_ROW_NORM, STEP_FILTER_MARGIN
from .weights import WeightMatrix, descent_matrix

MAX_ITER = 10 ** 6
# numpy adds fewer terms than this in one plain loop, and more pairwise
PAIRWISE_SUM_FROM = 8


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
    residual, failed). potential_histories, when recorded, holds the potential
    at steps 0..iters of each trial that has potential weights."""

    rows: np.ndarray
    iters: np.ndarray
    residual: np.ndarray
    failed: np.ndarray
    potential_histories: Optional[list] = None

    def __iter__(self):
        return iter((self.rows, self.iters, self.residual, self.failed))


def _row_norms(z: np.ndarray) -> np.ndarray:
    """np.linalg.norm(z, axis=-1) bit for bit. Below PAIRWISE_SUM_FROM
    columns numpy adds each row's squares in order, so a loop over the
    columns adds them in the same order at one call per column rather than
    numpy's cost per row, which dominates a large working set."""
    squares = z * z
    if z.shape[-1] >= PAIRWISE_SUM_FROM:
        return np.sqrt(np.add.reduce(squares, axis=-1))
    total = squares[..., 0].copy()
    for k in range(1, z.shape[-1]):
        total += squares[..., k]
    return np.sqrt(total, out=total)


def _norm(flat: np.ndarray) -> float:
    """sqrt of one BLAS dot: the reduction of np.linalg.norm on a vector."""
    return np.sqrt(np.dot(flat, flat))


def _lockstep(entries: np.ndarray, rows: np.ndarray, fp_tol: float,
              max_iter: int, weights: Optional[np.ndarray] = None,
              agents: Optional[np.ndarray] = None) -> BatchResult:
    """The one loop over iteration steps, for a (T, n, n) stack of iteration
    matrices and a (T, n, d) stack of start rows, of which trial t's first
    agents[t] are real (all n without agents). weights, an (S, n, n) stack,
    belongs to the first S trials.

    Active trials form a compact working set (matrices, rows, last steps,
    potential weights) that is re-gathered only on a step where a trial
    leaves: by converging, by a zero-norm row image, or at max_iter. A trial's
    iteration count, residual and final rows are written only when it leaves.
    A failed trial keeps the rows it failed at and the count and residual of
    its last completed step. With weights, the potential tr(X^T W X) of each
    of the first S trials is recorded before every step; as trials leave in
    order, those stay a prefix of the working set.

    A step's size is screened by the squared norm of the whole padded step,
    one batched dot per step. Trailing pad zeros can change the last bit of
    that dot, so a trial is decided on its exact residual, the root of the
    dot over its real agents alone. That is taken only when the screen is at
    most fp_tol^2 * (1 + STEP_FILTER_MARGIN), at max_iter, and for the
    previous step of a failed trial.
    """
    t_count, size, d = rows.shape
    spans = np.full(t_count, size * d) if agents is None else np.asarray(agents) * d
    final = rows.copy()
    iters = np.zeros(t_count, dtype=int)
    residual = np.full(t_count, np.inf)
    failed = np.zeros(t_count, dtype=bool)
    idx, m, x, w = np.arange(t_count), entries, rows, weights
    last = None  # the flat previous step of each active trial
    cutoff = fp_tol * fp_tol * (1.0 + STEP_FILTER_MARGIN)
    segments, recorded = [], []  # potentials per working set
    for k in range(max_iter + 1 if t_count else 0):
        if w is not None:
            recorded.append(np.einsum("tij,tik,tjk->t", w, x[:len(w)], x[:len(w)]))
        z = m @ x
        norms = _row_norms(z)
        bad = None
        if norms.min() <= MIN_ROW_NORM:
            bad = norms.min(axis=1) <= MIN_ROW_NORM
            norms[bad] = 1.0  # their images are discarded
        nxt = np.divide(z, norms[:, :, None], out=z)
        flat = (nxt - x).reshape(len(idx), -1)
        squares = np.matmul(flat[:, None, :], flat[:, :, None])[:, 0, 0]
        if bad is None and k < max_iter and squares.min() > cutoff:
            x, last = nxt, flat
            continue
        step = np.full(len(idx), np.inf)
        exact = (squares <= cutoff) | (k == max_iter)
        if bad is not None:
            exact &= ~bad
            if last is not None:  # a failed trial keeps its previous step
                for p in np.flatnonzero(bad):
                    step[p] = _norm(last[p, :spans[idx[p]]])
        for p in np.flatnonzero(exact):
            step[p] = _norm(flat[p, :spans[idx[p]]])
        done = (step <= fp_tol) | (k == max_iter)
        if bad is not None:
            done |= bad
        if not done.any():
            x, last = nxt, flat
            continue
        gone = idx[done]
        iters[gone] = k
        residual[gone] = step[done]
        final[gone] = x[done]
        if bad is not None:
            failed[idx[bad]] = True
            iters[idx[bad]] = max(k - 1, 0)
        if w is not None:
            # a block of potentials and the prefix positions that leave after it
            segments.append((np.array(recorded), np.flatnonzero(done[:len(w)])))
            recorded = []
        keep = ~done
        idx, m, x, last = idx[keep], m[keep], nxt[keep], flat[keep]
        if w is not None:
            w = w[keep[:len(w)]]
        if not len(idx):
            break
    histories = None
    if weights is not None:
        # trial t's history is the slice starts[t]:starts[t + 1] of one buffer
        starts = np.concatenate(([0], np.cumsum(iters[:len(weights)] + 1)))
        buffer = np.empty(starts[-1])
        ids, first = np.arange(len(weights)), 0
        for block, gone in segments:
            ks = np.arange(first, first + len(block))[:, None]
            inside = ks <= iters[ids]
            buffer[(starts[ids] + ks)[inside]] = block[inside]
            ids, first = np.delete(ids, gone), first + len(block)
        histories = [buffer[a:b] for a, b in zip(starts[:-1], starts[1:])]
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
              potential_weights: Optional[np.ndarray] = None,
              agents: Optional[np.ndarray] = None) -> BatchResult:
    """Run many independent trajectories of one sphere dimension in lockstep.

    entries is a (T, n, n) stack of iteration matrices and rows a (T, n, d)
    stack of start configurations; potential_weights, an (S, n, n) stack with
    S <= T, records the potential of each of the first S trials at every
    visited configuration. Trial t's final rows, iteration count, residual
    and potential history equal those of `run` on entries[t] from the rows
    rows[t] bit for bit; a trial whose row image vanishes is flagged in
    `failed` instead of raising.

    Trials with fewer agents share the call as `pad_agents` stacks them:
    agents[t] is then trial t's own agent count, and its results, the
    leading agents[t] final rows included, are those of a call on its
    unpadded stack.
    """
    return _lockstep(np.asarray(entries, dtype=float), np.asarray(rows, dtype=float),
                     fp_tol, max_iter, potential_weights, agents)


def pad_agents(entries: list, rows: list, weights: Optional[list] = None):
    """Stack trials of one d and any n for one `run_batch` call, each padded
    with trailing agents up to the largest n; weights, if any, belong to the
    leading trials. A pad agent has an identity row and column in its
    iteration matrix, the start row e_1 and zero potential weights, so it maps
    to itself exactly (norm 1, step 0) and adds nothing to the potential.
    Returns the padded (entries, rows, weights or None) and the agent counts,
    as `run_batch` takes them."""
    agents = np.array([len(r) for r in rows])
    count, size, d = len(rows), int(agents.max()), rows[0].shape[1]
    mats = np.tile(np.eye(size), (count, 1, 1))
    starts = np.zeros((count, size, d))
    starts[:, :, 0] = 1.0
    for t, n in enumerate(agents):
        mats[t, :n, :n] = entries[t]
        starts[t, :n] = rows[t]
    stacked = None
    if weights:
        stacked = np.zeros((len(weights), size, size))
        for t, w in enumerate(weights):
            stacked[t, :len(w), :len(w)] = w
    return mats, starts, stacked, agents


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
