"""Differential of the iteration map, one linearization per point: the
projected Jacobian, the reduced matrix in orthonormal tangent bases, spectra,
determinants, certificates and fixed-point stability classification, each read
from one iteration step at the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import _step
from .state import (Configuration, TangentBasis, agent_blocks, as_array,
                    classify_configuration, relative_rank, tangent_basis,
                    tangent_projectors)
from .tolerances import (A_RESIDUAL_TOL, CERTIFICATE_FP_TOL, CLASS_TOL, NEUTRAL_TOL,
                         TRACE_TOL)
from .weights import WeightMatrix, satisfies_sqrt2_condition


class _Linearization:
    """One iteration step at rows x, or at a stack of rows with a stack of
    matrices: x, the image rows y as the step returns them, the row norms of
    M X and D(MX) M. The rest is built when asked for."""

    def __init__(self, m, c):
        entries, self.x = as_array(m), as_array(c)
        self.y, self.norms = _step(entries, self.x)
        self.scaled = entries / self.norms[..., None]

    def residual(self) -> float:
        return float(np.linalg.norm(self.y - self.x))

    def jacobian(self) -> np.ndarray:
        return agent_blocks(self.scaled, tangent_projectors(self.x), tangent_projectors(self.y))

    def reduced(self, basis_x=None, basis_y=None) -> np.ndarray:
        bx = basis_x if basis_x is not None else tangent_basis(self.x)
        by = basis_y if basis_y is not None else tangent_basis(self.y)
        return agent_blocks(self.scaled, bx.blocks, np.swapaxes(by.blocks, -1, -2))

    def spectral_radius(self, agents=None):
        red = self.reduced()
        if agents is not None:
            real = np.arange(red.shape[-1]) < np.asarray(agents)[:, None] * (self.x.shape[-1] - 1)
            red = np.where(real[:, :, None] & real[:, None, :], red, 0.0)
        radii = np.abs(np.linalg.eigvals(red)).max(axis=-1)
        return float(radii) if radii.ndim == 0 else radii


def _shifted(entries, rows, shift) -> np.ndarray:
    """P_x ((A - diag(shift)) ot I_d) P_x: block (i, j) is (a_ij - shift_i delta_ij) P_i P_j."""
    p = tangent_projectors(rows)
    return agent_blocks(entries - np.diag(shift), p, p)


def _neutral(rho: float) -> bool:
    """Is the spectral radius 1, to NEUTRAL_TOL?"""
    return bool(abs(rho - 1.0) <= NEUTRAL_TOL)


def projected_jacobian(m, c: Configuration) -> np.ndarray:
    """nd x nd linearization P_y (D(MX) M ot I_d) P_x, with y the image of x.

    Block (i,j) is m_ij * P_{y_i} P_{x_j} / ||row i of M X||.
    """
    return _Linearization(m, c).jacobian()


def reduced_matrix(m, c, basis_x: Optional[TangentBasis] = None,
                   basis_y: Optional[TangentBasis] = None) -> np.ndarray:
    """n(d-1) x n(d-1) representation of the differential with respect to
    orthonormal tangent bases at x and at its image y. With a (T, n, n) stack
    of matrices and a (T, n, d) stack of unit rows, a (T, n(d-1), n(d-1))
    stack.

    Block (i,j) is m_ij * R_{y_i}^T R_{x_j} / ||row i of M X||. The basis at y
    is taken on the image rows as the iteration step computes them, which are
    unit rows already.
    """
    return _Linearization(m, c).reduced(basis_x, basis_y)


@dataclass(frozen=True)
class DifferentialReport:
    """Full linearization snapshot at a configuration."""

    jacobian: np.ndarray
    reduced: np.ndarray
    basis_x: TangentBasis
    basis_y: TangentBasis
    eigenvalues: np.ndarray
    spectral_radius: float
    det: float


def differential_report(m, c: Configuration) -> DifferentialReport:
    """Compute the projected Jacobian, the reduced matrix, its spectrum and
    determinant, all from one iteration step."""
    lin = _Linearization(m, c)
    bx, by = tangent_basis(lin.x), tangent_basis(lin.y)
    red = lin.reduced(bx, by)
    eig = np.linalg.eigvals(red)
    return DifferentialReport(
        jacobian=lin.jacobian(),
        reduced=red,
        basis_x=bx,
        basis_y=by,
        eigenvalues=eig,
        spectral_radius=float(np.abs(eig).max()),
        det=float(np.linalg.det(red)),
    )


def spectral_radius(m, c, agents=None):
    """Largest eigenvalue modulus of the reduced matrix at c. For a stack of
    trials of one shape, as `reduced_matrix` takes it, an array of one radius
    per trial from one eigvals call.

    agents[t] (a stack padded as `dynamics.pad_agents` pads it) counts trial
    t's real agents: the pad agents' rows and columns of its reduced matrix
    are zeroed, which adds zero eigenvalues only. LAPACK's balancing isolates
    trailing zero rows and columns without moving the real block, so each
    radius is that of the trial alone bit for bit while the padded order
    n (d - 1) stays below LAPACK's small-matrix crossover (dhseqr's NMIN, 75
    in reference LAPACK); above it, to round-off."""
    return _Linearization(m, c).spectral_radius(agents)


@dataclass(frozen=True)
class DeterminantCheck:
    det: float
    scale: float
    sqrt2_condition: bool
    bound_satisfied: bool


def determinant_nonzero_check(a: WeightMatrix, c: Configuration) -> DeterminantCheck:
    """det of the reduced matrix, which cannot vanish when each diagonal entry
    exceeds sqrt(2) times the rest of its row. The bound checked is full
    numerical rank, sigma_min > RANK_TOL * sigma_max, whatever n."""
    red = _Linearization(a, c).reduced()
    det = float(np.linalg.det(red))
    scale = float(np.prod(np.linalg.norm(red, axis=1)))
    s = np.linalg.svd(red, compute_uv=False)
    cond = satisfies_sqrt2_condition(a)
    return DeterminantCheck(det, scale, cond, cond and relative_rank(s) == s.size)


def certificate_matrix(a: WeightMatrix, c: Configuration) -> np.ndarray:
    """P_x ((A - diag(row norms of AX)) ot I_d) P_x, symmetric when A is.

    At a fixed point with symmetric A, a positive eigenvalue of this matrix
    certifies that the differential has an eigenvalue strictly beyond the
    unit circle.
    """
    return _shifted(a.entries, c.rows, _Linearization(a, c).norms)


@dataclass(frozen=True)
class StabilityClassification:
    label: str  # "consensus-neutral" | "unstable-certified" |
    #             "neutral-nonconsensus" | "inconclusive"
    spectral_radius: float
    certificate_eigenvalue: Optional[float] = None


def instability_certificate(a: WeightMatrix, c: Configuration,
                            fp_tol: float = CERTIFICATE_FP_TOL) -> StabilityClassification:
    """Classify the stability of a fixed point of the weight iteration.

    For symmetric A, a positive top eigenvalue of the symmetric certificate
    matrix implies an eigenvalue of the differential strictly beyond 1; the
    label is read from the spectral radius of the reduced matrix, and the
    certificate's top eigenvalue is reported beside it. Non-symmetric A
    reports the spectral radius alone. Spectral radii within
    CLASS_TOL of 1 on non-consensus points are reported neutral, never stable.
    """
    lin = _Linearization(a, c)
    res = lin.residual()
    if res > fp_tol:
        raise ValueError(f"not a fixed point: residual {res:.3e} > {fp_tol:.1e}")
    rho = lin.spectral_radius()
    cls = classify_configuration(c)
    if cls.is_consensus:
        return StabilityClassification("consensus-neutral", rho)

    lam_h = None
    if a.is_symmetric():
        lam_h = float(np.linalg.eigvalsh(_shifted(a.entries, c.rows, lin.norms)).max())
    if rho > 1.0 + CLASS_TOL:
        return StabilityClassification("unstable-certified", rho, lam_h)
    if rho >= 1.0 - CLASS_TOL:
        return StabilityClassification("neutral-nonconsensus", rho, lam_h)
    return StabilityClassification("inconclusive", rho, lam_h)


@dataclass(frozen=True)
class TraceCheck:
    lhs: float
    rhs: float
    match: bool


def trace_formula_check(a: WeightMatrix, c: Configuration) -> TraceCheck:
    """Closed form for the trace of the certificate matrix collapsed over
    agents.

    The left side collapses P_x ((A - diag(x_i . [AX]_i)) ot I_d) P_x with
    1_n ot I_d on both sides, which sums its agent blocks; the right side is
    sum_i sum_{j != i} a_ij (d - 2 + cos^2 t_ij - (d-1) cos t_ij) with
    cos t_ij = x_i . x_j. The diagonal shift uses the aligned component
    x_i . [AX]_i, which equals the row norm of AX exactly at fixed points, so
    the identity holds at every configuration.
    """
    if not a.is_symmetric():
        raise ValueError("trace formula requires a symmetric weight matrix")
    entries = a.entries
    n, d = c.n, c.d
    aligned = np.einsum("ij,ij->i", c.rows, entries @ c.rows)
    h = _shifted(entries, c.rows, aligned)
    lhs = float(np.trace(h.reshape(n, d, n, d).sum(axis=(0, 2))))

    gram = c.rows @ c.rows.T
    off = entries * (1.0 - np.eye(n))
    rhs = float(np.sum(off * (d - 2 + gram ** 2 - (d - 1) * gram)))
    return TraceCheck(lhs, rhs, abs(lhs - rhs) <= TRACE_TOL * (1.0 + abs(rhs)))


def positive_dot_neutrality_check(a: WeightMatrix, c: Configuration) -> Optional[bool]:
    """For d = 2 fixed points with positive neighbor dot products: is the
    spectral radius of the reduced matrix 1? Returns None when the
    preconditions do not apply."""
    if c.d != 2:
        return None
    lin = _Linearization(a, c)
    if lin.residual() > A_RESIDUAL_TOL:
        return None
    gram = c.rows @ c.rows.T
    mask = (a.entries > 0) & ~np.eye(c.n, dtype=bool)
    if np.any(gram[mask] <= 0):
        return None
    return _neutral(lin.spectral_radius())
