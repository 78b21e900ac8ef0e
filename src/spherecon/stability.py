"""Differential of the iteration map: projected Jacobian, its reduced
representation in orthonormal tangent bases, spectra, determinants, and
fixed-point stability classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import _step, fixed_point_residual
from .state import (Configuration, TangentBasis, agent_blocks, as_array,
                    classify_configuration, relative_rank, tangent_basis,
                    tangent_projectors, unit_rows)
from .tolerances import (A_RESIDUAL_TOL, CERTIFICATE_FP_TOL, CLASS_TOL, NEUTRAL_TOL,
                         TRACE_TOL)
from .weights import WeightMatrix, satisfies_sqrt2_condition


def _scaled_entries(m, c):
    """Returns (D(MX) M, new rows): the row-normalized coefficient matrix of
    the linearization, and the image configuration rows; m and c may carry
    leading batch axes."""
    entries = as_array(m)
    y_rows, norms = _step(entries, as_array(c))
    return entries / norms[..., None], y_rows


def projected_jacobian(m, c: Configuration) -> np.ndarray:
    """nd x nd linearization P_y (D(MX) M ot I_d) P_x, with y the image of x.

    Block (i,j) is m_ij * P_{y_i} P_{x_j} / ||row i of M X||.
    """
    da, y_rows = _scaled_entries(m, c)
    return agent_blocks(da, tangent_projectors(c.rows), tangent_projectors(y_rows))


def reduced_matrix(m, c, basis_x: Optional[TangentBasis] = None,
                   basis_y: Optional[TangentBasis] = None) -> np.ndarray:
    """n(d-1) x n(d-1) representation of the differential with respect to
    orthonormal tangent bases at x and at its image y. With a (T, n, n) stack
    of matrices and a (T, n, d) stack of unit rows, a (T, n(d-1), n(d-1))
    stack.

    Block (i,j) is m_ij * R_{y_i}^T R_{x_j} / ||row i of M X||.
    """
    da, y_rows = _scaled_entries(m, c)
    bx = basis_x if basis_x is not None else tangent_basis(c)
    by = basis_y if basis_y is not None else tangent_basis(unit_rows(y_rows))
    return agent_blocks(da, bx.blocks, np.swapaxes(by.blocks, -1, -2))


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


def differential_report(m, c: Configuration,
                        basis_x: Optional[TangentBasis] = None,
                        basis_y: Optional[TangentBasis] = None) -> DifferentialReport:
    """Compute the projected Jacobian, the reduced matrix, its spectrum and
    determinant."""
    da, y_rows = _scaled_entries(m, c)
    bx = basis_x if basis_x is not None else tangent_basis(c)
    by = basis_y if basis_y is not None else tangent_basis(unit_rows(y_rows))
    # projected_jacobian and reduced_matrix, sharing one iteration step
    jac = agent_blocks(da, tangent_projectors(c.rows), tangent_projectors(y_rows))
    red = agent_blocks(da, bx.blocks, np.swapaxes(by.blocks, -1, -2))
    eig = np.linalg.eigvals(red)
    return DifferentialReport(
        jacobian=jac,
        reduced=red,
        basis_x=bx,
        basis_y=by,
        eigenvalues=eig,
        spectral_radius=float(np.abs(eig).max()) if eig.size else 0.0,
        det=float(np.linalg.det(red)),
    )


def spectral_radius(m, c):
    """Largest eigenvalue modulus of the reduced matrix at c. For a stack of
    trials of one shape, as `reduced_matrix` takes it, an array of one radius
    per trial from one eigvals call."""
    radii = np.abs(np.linalg.eigvals(reduced_matrix(m, c))).max(axis=-1)
    return float(radii) if radii.ndim == 0 else radii


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
    red = reduced_matrix(a, c)
    det = float(np.linalg.det(red))
    scale = float(np.prod(np.linalg.norm(red, axis=1)))
    s = np.linalg.svd(red, compute_uv=False)
    cond = satisfies_sqrt2_condition(a)
    return DeterminantCheck(det, scale, cond, cond and relative_rank(s) == s.size)


def certificate_matrix(a: WeightMatrix, c: Configuration) -> np.ndarray:
    """Symmetric matrix P_x ((A - diag(row norms of AX)) ot I_d) P_x.

    At a fixed point, a positive eigenvalue of this matrix certifies that the
    differential has an eigenvalue strictly beyond the unit circle.
    """
    _, norms = _step(a.entries, c.rows)
    p = tangent_projectors(c.rows)
    return agent_blocks(a.entries - np.diag(norms), p, p)


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
    matrix implies an eigenvalue of the differential strictly beyond 1; both
    facts are verified numerically. Non-symmetric A falls back to the
    spectral radius of the reduced matrix alone. Spectral radii within
    CLASS_TOL of 1 on non-consensus points are reported neutral, never stable.
    """
    res = fixed_point_residual(a, c)
    if res > fp_tol:
        raise ValueError(f"not a fixed point: residual {res:.3e} > {fp_tol:.1e}")
    rho = spectral_radius(a, c)
    cls = classify_configuration(c)
    if cls.is_consensus:
        return StabilityClassification("consensus-neutral", rho)

    lam_h = None
    if a.is_symmetric():
        h = certificate_matrix(a, c)
        lam_h = float(np.linalg.eigvalsh(h).max())
        if lam_h > CLASS_TOL and rho > 1.0 + CLASS_TOL:
            return StabilityClassification("unstable-certified", rho, lam_h)
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
    z = entries @ c.rows
    aligned = np.einsum("ij,ij->i", c.rows, z)
    p = tangent_projectors(c.rows)
    h = agent_blocks(entries - np.diag(aligned), p, p)
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
    if fixed_point_residual(a, c) > A_RESIDUAL_TOL:
        return None
    gram = c.rows @ c.rows.T
    mask = (a.entries > 0) & ~np.eye(c.n, dtype=bool)
    if np.any(gram[mask] <= 0):
        return None
    return bool(abs(spectral_radius(a, c) - 1.0) <= NEUTRAL_TOL)
