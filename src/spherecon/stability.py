"""Differential of the iteration map: projected Jacobian, its reduced
representation in orthonormal tangent bases, spectra, determinants, and
fixed-point stability classification.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import _step, fixed_point_residual
from .state import (RANK_TOL, Configuration, TangentBasis, as_array,
                    block_diagonal_matrix, classify_configuration, tangent_basis,
                    tangent_projectors)
from .weights import WeightMatrix, satisfies_sqrt2_condition

CLASS_TOL = 1e-7


def _scaled_entries(m, c: Configuration):
    """Returns (D(MX) M, new rows): the row-normalized coefficient matrix of
    the linearization, and the image configuration rows."""
    entries = as_array(m)
    y_rows, norms = _step(entries, c.rows)
    return entries / norms[:, None], y_rows


def _scaled_block_products(da: np.ndarray, left: np.ndarray,
                           right: np.ndarray) -> np.ndarray:
    """Block matrix whose (i,j) block is da_ij * left[i] @ right[j], from
    (n, p, k) and (n, k, q) stacks, with the products of all pairs with
    da_ij != 0 in one matmul; the other blocks stay exactly zero."""
    n, p, _ = left.shape
    q = right.shape[2]
    i, j = np.nonzero(da)
    blocks = np.zeros((n, n, p, q))
    blocks[i, j] = da[i, j, None, None] * np.matmul(left[i], right[j])
    return blocks.transpose(0, 2, 1, 3).reshape(n * p, n * q)


def projected_jacobian(m, c: Configuration) -> np.ndarray:
    """nd x nd linearization P_y (D(MX) M ot I_d) P_x, with y the image of x.

    Block (i,j) is m_ij * P_{y_i} P_{x_j} / ||row i of M X||.
    """
    da, y_rows = _scaled_entries(m, c)
    return _scaled_block_products(da, tangent_projectors(y_rows),
                                  tangent_projectors(c.rows))


def reduced_matrix(m, c: Configuration, basis_x: Optional[TangentBasis] = None,
                   basis_y: Optional[TangentBasis] = None) -> np.ndarray:
    """n(d-1) x n(d-1) representation of the differential with respect to
    orthonormal tangent bases at x and at its image y.

    Block (i,j) is m_ij * R_{y_i}^T R_{x_j} / ||row i of M X||.
    """
    da, y_rows = _scaled_entries(m, c)
    bx = basis_x if basis_x is not None else tangent_basis(c)
    by = basis_y if basis_y is not None else tangent_basis(Configuration(y_rows))
    return _scaled_block_products(da, by.blocks.transpose(0, 2, 1), bx.blocks)


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
    angles: np.ndarray  # arccos(x_i . y_i) per agent

    def to_json(self) -> str:
        return json.dumps({
            "eigenvalues": [[float(v.real), float(v.imag)] for v in self.eigenvalues],
            "spectral_radius": self.spectral_radius,
            "det": self.det,
            "angles": self.angles.tolist(),
        })


def differential_report(m, c: Configuration,
                        basis_x: Optional[TangentBasis] = None,
                        basis_y: Optional[TangentBasis] = None) -> DifferentialReport:
    """Compute the projected Jacobian, the reduced matrix, its spectrum and
    determinant, and the per-agent rotation angles of one iteration step."""
    _, y_rows = _scaled_entries(m, c)
    bx = basis_x if basis_x is not None else tangent_basis(c)
    by = basis_y if basis_y is not None else tangent_basis(Configuration(y_rows))
    jac = projected_jacobian(m, c)
    red = reduced_matrix(m, c, bx, by)
    eig = np.linalg.eigvals(red)
    dots = np.clip(np.einsum("ij,ij->i", c.rows, y_rows), -1.0, 1.0)
    return DifferentialReport(
        jacobian=jac,
        reduced=red,
        basis_x=bx,
        basis_y=by,
        eigenvalues=eig,
        spectral_radius=float(np.abs(eig).max()) if eig.size else 0.0,
        det=float(np.linalg.det(red)),
        angles=np.arccos(dots),
    )


def spectral_radius(m, c: Configuration) -> float:
    red = reduced_matrix(m, c)
    return float(np.abs(np.linalg.eigvals(red)).max())


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
    return DeterminantCheck(det, scale, cond, cond and bool(s[-1] > RANK_TOL * s[0]))


def _projected_shift(entries: np.ndarray, shift: np.ndarray,
                     rows: np.ndarray) -> np.ndarray:
    """P_x ((A - diag(shift)) ot I_d) P_x."""
    px = block_diagonal_matrix(tangent_projectors(rows))
    return px @ np.kron(entries - np.diag(shift), np.eye(rows.shape[1])) @ px


def certificate_matrix(a: WeightMatrix, c: Configuration) -> np.ndarray:
    """Symmetric matrix P_x ((A - diag(row norms of AX)) ot I_d) P_x.

    At a fixed point, a positive eigenvalue of this matrix certifies that the
    differential has an eigenvalue strictly beyond the unit circle.
    """
    _, norms = _step(a.entries, c.rows)
    return _projected_shift(a.entries, norms, c.rows)


@dataclass(frozen=True)
class StabilityClassification:
    label: str  # "consensus-neutral" | "unstable-certified" |
    #             "neutral-nonconsensus" | "inconclusive"
    spectral_radius: float
    certificate_eigenvalue: Optional[float] = None


def instability_certificate(a: WeightMatrix, c: Configuration,
                            fp_tol: float = 1e-9,
                            class_tol: float = CLASS_TOL) -> StabilityClassification:
    """Classify the stability of a fixed point of the weight iteration.

    For symmetric A, a positive top eigenvalue of the symmetric certificate
    matrix implies an eigenvalue of the differential strictly beyond 1; both
    facts are verified numerically. Non-symmetric A falls back to the
    spectral radius of the reduced matrix alone. Spectral radii within
    class_tol of 1 on non-consensus points are reported neutral, never stable.
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
        if lam_h > class_tol and rho > 1.0 + class_tol:
            return StabilityClassification("unstable-certified", rho, lam_h)
    if rho > 1.0 + class_tol:
        return StabilityClassification("unstable-certified", rho, lam_h)
    if rho >= 1.0 - class_tol:
        return StabilityClassification("neutral-nonconsensus", rho, lam_h)
    return StabilityClassification("inconclusive", rho, lam_h)


@dataclass(frozen=True)
class TraceCheck:
    lhs: float
    rhs: float
    match: bool


def trace_formula_check(a: WeightMatrix, c: Configuration,
                        tol: float = 1e-10) -> TraceCheck:
    """Closed form for the trace of the certificate matrix collapsed over
    agents.

    The left side collapses P_x ((A - diag(x_i . [AX]_i)) ot I_d) P_x with
    1_n ot I_d on both sides; the right side is
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
    h = _projected_shift(entries, aligned, c.rows)
    ones = np.kron(np.ones((n, 1)), np.eye(d))
    lhs = float(np.trace(ones.T @ h @ ones))

    gram = c.rows @ c.rows.T
    off = entries * (1.0 - np.eye(n))
    rhs = float(np.sum(off * (d - 2 + gram ** 2 - (d - 1) * gram)))
    return TraceCheck(lhs, rhs, abs(lhs - rhs) <= tol * (1.0 + abs(rhs)))


def positive_dot_neutrality_check(a: WeightMatrix, c: Configuration,
                                  fp_tol: float = 1e-9,
                                  tol: float = 1e-9) -> Optional[bool]:
    """For d = 2 fixed points with positive neighbor dot products: is the
    spectral radius of the reduced matrix 1? Returns None when the
    preconditions do not apply."""
    if c.d != 2:
        return None
    if fixed_point_residual(a, c) > fp_tol:
        return None
    gram = c.rows @ c.rows.T
    mask = (a.entries > 0) & ~np.eye(c.n, dtype=bool)
    if np.any(gram[mask] <= 0):
        return None
    return bool(abs(spectral_radius(a, c) - 1.0) <= tol)
