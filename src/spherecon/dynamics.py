"""The sphere-projection iteration: each agent replaces its state by the
normalized conical combination of its neighbors' states. Includes the
quadratic potential, the trajectory runner, and the descent mode used to
locate non-consensus fixed points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .state import Configuration, ConfigurationClass, as_array, classify_configuration
from .weights import WeightMatrix, descent_matrix

FP_TOL = 1e-12
MAX_ITER = 10 ** 6
_MIN_ROW_NORM = 1e-14


def _step(entries: np.ndarray, rows: np.ndarray):
    """One update on raw rows; returns (new rows, row norms of entries@rows).

    A vanishing row image is impossible for strictly diagonally dominant
    weight matrices; it is checked here whatever the matrix.
    """
    z = entries @ rows
    norms = np.linalg.norm(z, axis=1)
    if norms.min() <= _MIN_ROW_NORM:
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


def normalization_diagonal(m, c: Configuration) -> np.ndarray:
    """Diagonal of D(MX): the reciprocal row norms of M X."""
    _, norms = _step(as_array(m), c.rows)
    return 1.0 / norms


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
    metadata: dict = field(default_factory=dict)
    # populated by the descent mode
    classification: Optional[ConfigurationClass] = None
    residual_weight: Optional[float] = None

    def to_json(self) -> str:
        obj = {
            "final": json.loads(self.final.to_json()),
            "iterations": self.iterations,
            "residual": self.residual,
            "converged": self.converged,
            "metadata": self.metadata,
        }
        if self.potential_history is not None:
            obj["potential_history"] = list(map(float, self.potential_history))
        if self.classification is not None:
            obj["classification"] = {
                "kind": self.classification.kind,
                "rank": self.classification.rank,
            }
        if self.residual_weight is not None:
            obj["residual_weight"] = self.residual_weight
        return json.dumps(obj)


def run(m, c0: Configuration, fp_tol: float = FP_TOL, max_iter: int = MAX_ITER,
        record_potential: bool = False,
        a_for_potential: Optional[WeightMatrix] = None,
        metadata: Optional[dict] = None) -> TrajectoryResult:
    """Iterate until the fixed-point residual ||f(x) - x||_2 drops to fp_tol
    or max_iter steps have been taken. Optionally records the potential of
    a_for_potential at every visited configuration."""
    if record_potential and a_for_potential is None:
        raise ValueError("record_potential requires a_for_potential")
    entries = as_array(m)
    rows = c0.rows
    history = [] if record_potential else None
    ae = a_for_potential.entries if a_for_potential is not None else None

    residual = np.inf
    steps = 0
    for k in range(max_iter + 1):
        if record_potential:
            history.append(np.einsum("ij,ik,jk->", ae, rows, rows))
        nxt, _ = _step(entries, rows)
        residual = float(np.linalg.norm(nxt - rows))
        steps = k
        if residual <= fp_tol or k == max_iter:
            break
        rows = nxt

    return TrajectoryResult(
        final=Configuration(rows),
        iterations=steps,
        residual=residual,
        converged=residual <= fp_tol,
        potential_history=np.asarray(history) if record_potential else None,
        metadata=metadata or {},
    )


def run_batch(entries: np.ndarray, rows: np.ndarray, fp_tol: float = FP_TOL,
              max_iter: int = MAX_ITER):
    """Run many independent trajectories of the same shape in lockstep.

    entries is a (T, n, n) stack of iteration matrices and rows a (T, n, d)
    stack of start configurations. Returns (final rows, iteration counts,
    residuals, zero-norm failure mask); trial t's final rows match
    run(entries[t], Configuration(rows[t])).final exactly. Used by experiment
    commands where a per-trial Python loop would dominate the runtime.
    """
    entries = np.asarray(entries, dtype=float)
    rows = np.array(rows, dtype=float)
    t_count = entries.shape[0]
    iters = np.zeros(t_count, dtype=int)
    residual = np.full(t_count, np.inf)
    failed = np.zeros(t_count, dtype=bool)
    active = np.ones(t_count, dtype=bool)
    for k in range(max_iter + 1):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        z = entries[idx] @ rows[idx]
        norms = np.linalg.norm(z, axis=2)
        bad = norms.min(axis=1) <= _MIN_ROW_NORM
        if bad.any():
            failed[idx[bad]] = True
            active[idx[bad]] = False
            idx = idx[~bad]
            if idx.size == 0:
                continue
            z = z[~bad]
            norms = norms[~bad]
        nxt = z / norms[:, :, None]
        res = np.linalg.norm((nxt - rows[idx]).reshape(idx.size, -1), axis=1)
        residual[idx] = res
        iters[idx] = k
        done = (res <= fp_tol) | (k == max_iter)
        cont = idx[~done]
        rows[cont] = nxt[~done]
        active[idx[done]] = False
    return rows, iters, residual, failed


def fixed_point_residual(m, c: Configuration) -> float:
    """||f(x) - x||_2 for the iteration driven by m."""
    rows, _ = _step(as_array(m), c.rows)
    return float(np.linalg.norm(rows - c.rows))


def find_nonconsensus_fixed_point(a: WeightMatrix, c0: Configuration,
                                  slack: float = 0.25, fp_tol: float = FP_TOL,
                                  max_iter: int = MAX_ITER,
                                  metadata: Optional[dict] = None) -> TrajectoryResult:
    """Run the iteration with the descent matrix alpha*I - A instead of A.

    For symmetric A this descends the potential tr(X^T A X), so converged
    limits are non-consensus fixed points of the descent iteration. The
    result records both the descent residual and the residual under A itself
    (the latter need not be small), plus the limit's classification.
    """
    md = descent_matrix(a, slack)
    res = run(md, c0, fp_tol=fp_tol, max_iter=max_iter, metadata=metadata)
    cls = classify_configuration(res.final)
    res_a = fixed_point_residual(a, res.final)
    return TrajectoryResult(
        final=res.final,
        iterations=res.iterations,
        residual=res.residual,
        converged=res.converged,
        potential_history=res.potential_history,
        metadata=res.metadata,
        classification=cls,
        residual_weight=res_a,
    )
