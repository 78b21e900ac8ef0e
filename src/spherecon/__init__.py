"""Discrete-time consensus on products of unit spheres.

Each agent repeatedly replaces its unit-vector state by the normalized
conical combination of its neighbors' states. This package provides the
iteration, its tangent-space linearization and stability analysis, the
parametric fixed-point rank lab, and a seeded Monte-Carlo experiment harness.
"""

from .graph import (DirectedGraph, complete_graph, is_strongly_connected,
                    is_symmetric, random_connected_er, random_strongly_connected,
                    random_symmetric_connected, ring_graph, structure_matrix)
from .weights import (DescentMatrix, WeightMatrix, descent_matrix,
                      is_strictly_diagonally_dominant, left_scale_normalize,
                      sample_sdd, satisfies_sqrt2_condition)
from .state import (Configuration, ConfigurationClass, TangentBasis,
                    classify_configuration, consensus_configuration,
                    normalize_rows, numerical_rank, projection_matrix,
                    random_configuration, tangent_basis, unvec)
from .dynamics import (TrajectoryResult, find_nonconsensus_fixed_point,
                       fixed_point_residual, iterate, normalization_diagonal,
                       potential, run, run_batch)
from .stability import (DifferentialReport, StabilityClassification,
                        certificate_matrix, determinant_nonzero_check,
                        differential_report, instability_certificate,
                        positive_dot_neutrality_check, projected_jacobian,
                        reduced_matrix, spectral_radius, trace_formula_check)
from .fixedpoint_rank import (FixedPointSystem, assemble_Jg,
                              build_fixed_point_system, compute_D,
                              duplication_matrix, matrix_rank,
                              pin_configuration, residual_g, skew_null_vectors,
                              structure_masks, symmetric_rank_deficiency_check,
                              vech)

__version__ = "0.1.0"
