"""Parametric residual g(A, D, x), structure masks, duplication matrix, and
rank analyses of the residual Jacobian at pinned fixed points."""

import numpy as np
import pytest

from spherecon.dynamics import find_nonconsensus_fixed_point
from spherecon.fixedpoint_rank import (assemble_Jg, build_fixed_point_system,
                                       compute_D, duplication_matrix,
                                       matrix_rank, pin_configuration,
                                       residual_g, skew_null_vectors,
                                       structure_masks,
                                       symmetric_rank_deficiency_check, vech)
from spherecon.graph import DirectedGraph, complete_graph
from spherecon.state import Configuration, consensus_configuration, random_configuration
from spherecon.weights import sample_sdd

from test_state import pentagon
from test_weights import pentagon_matrix


def test_compute_D_consensus_row_sums():
    a = sample_sdd(complete_graph(3), margin=0.2, symmetric=True, seed=1)
    c = consensus_configuration(3, np.array([1.0, 0.0]))
    assert np.allclose(compute_D(a.entries, c.rows), a.entries.sum(axis=1))


def test_compute_D_identity_and_two_agent():
    c = Configuration(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(compute_D(np.eye(2), c.rows), 1.0)
    a = np.array([[3.0, 1.0], [1.0, 3.0]])
    assert np.allclose(compute_D(a, c.rows), np.sqrt(10.0))


def test_residual_g_zero_at_consensus():
    a = sample_sdd(complete_graph(4), margin=0.1, symmetric=True, seed=2)
    c = consensus_configuration(4, np.array([0.0, 1.0, 0.0]))
    r = residual_g(a.entries, a.entries.sum(axis=1), c.rows)
    assert np.abs(r).max() < 1e-12


def test_residual_g_zero_at_pentagon():
    a = pentagon_matrix()
    c = pentagon()
    r = residual_g(a.entries, compute_D(a.entries, c.rows), c.rows)
    assert np.abs(r).max() < 1e-12


def test_residual_g_matches_dense_formula():
    rng = np.random.default_rng(3)
    a = rng.uniform(size=(4, 4))
    dvec = rng.uniform(0.5, 2.0, size=4)
    x = random_configuration(4, 3, seed=4).rows
    expected = (np.kron(a, np.eye(3)) - np.kron(np.diag(dvec), np.eye(3))) \
        @ x.reshape(-1)
    assert np.allclose(residual_g(a, dvec, x), expected, atol=1e-14)


def test_residual_g_nonzero_off_fixed_points():
    a = sample_sdd(complete_graph(3), margin=0.1, symmetric=True, seed=5)
    x = random_configuration(3, 2, seed=6).rows
    r = residual_g(a.entries, compute_D(a.entries, x), x)
    assert np.abs(r).max() > 1e-6


def test_structure_masks_complete_graph():
    k_a, k_d = structure_masks(complete_graph(3))
    assert np.array_equal(k_a, np.ones(9))
    assert np.sum(k_d) == 3


def test_structure_masks_partial_graph():
    g = DirectedGraph(2, frozenset({(1, 2)}))
    k_a, k_d = structure_masks(g)
    # structure matrix [[1,1],[0,1]], flattened row-major
    assert np.array_equal(k_a, [1, 1, 0, 1])
    assert np.array_equal(k_d, k_a * k_d)


def test_duplication_matrix_small():
    assert np.array_equal(duplication_matrix(1), [[1.0]])
    d2 = duplication_matrix(2)
    assert d2.shape == (4, 3)
    c = np.array([[1.0, 2.0], [2.0, 5.0]])
    assert np.array_equal(d2 @ vech(c), c.reshape(-1, order="F"))


def test_duplication_matrix_identity_random():
    rng = np.random.default_rng(7)
    for n in range(2, 7):
        dn = duplication_matrix(n)
        for _ in range(20):
            b = rng.standard_normal((n, n))
            c = b + b.T
            assert np.array_equal(dn @ vech(c), c.reshape(-1, order="F"))


def test_pin_configuration():
    c = pentagon()
    xm, m = pin_configuration(c)
    assert m == 2
    assert np.allclose(xm[0], [1.0, 0.0], atol=1e-12)
    assert np.allclose(np.linalg.norm(xm, axis=1), 1.0, atol=1e-12)
    # pairwise dot products are preserved
    assert np.allclose(xm @ xm.T, c.rows @ c.rows.T, atol=1e-12)


def test_pin_consensus_gives_rank_one():
    c = consensus_configuration(4, np.array([0.0, 0.6, 0.8]))
    xm, m = pin_configuration(c)
    assert m == 1 and xm.shape == (4, 1)
    assert np.allclose(np.abs(xm), 1.0)


def _descent_system(n, d, seed):
    a = sample_sdd(complete_graph(n), margin=0.1, symmetric=True, seed=seed)
    res = find_nonconsensus_fixed_point(a, random_configuration(n, d, seed + 777))
    if not res.converged or res.residual_weight > 1e-9:
        return None
    return a, build_fixed_point_system(a, res.final)


def test_fixed_point_system_residual_small():
    got = 0
    for seed in range(20):
        out = _descent_system(4, 3, seed)
        if out is None:
            continue
        _, sys = out
        assert sys.residual() < 1e-10
        got += 1
    assert got >= 5


def test_nonsymmetric_jg_full_rank():
    got = 0
    for seed in range(20):
        out = _descent_system(4, 3, seed)
        if out is None:
            continue
        _, sys = out
        parts = assemble_Jg(sys, symmetric=False)
        assert matrix_rank(parts.full) == sys.n * sys.m
        got += 1
    assert got >= 5


def test_jg_a_block_finite_difference():
    out = None
    for seed in range(20):
        out = _descent_system(3, 2, seed)
        if out is not None:
            break
    assert out is not None
    a, sys = out
    parts = assemble_Jg(sys, symmetric=False)
    h = 1e-6
    for k in range(sys.n * sys.n):
        i, j = divmod(k, sys.n)
        da = np.zeros((sys.n, sys.n))
        da[i, j] = h
        plus = residual_g(sys.a + da, sys.dvec, sys.x)
        minus = residual_g(sys.a - da, sys.dvec, sys.x)
        fd = (plus - minus) / (2.0 * h)
        col = parts.a_part[:, k]
        denom = max(np.linalg.norm(col), 1.0)
        assert np.linalg.norm(col - fd) / denom < 1e-6


def test_symmetric_rank_deficiency_with_null_vectors():
    got = 0
    for seed in range(40):
        out = _descent_system(4, 3, seed)
        if out is None:
            continue
        _, sys = out
        if sys.m < 2:
            continue
        rep = symmetric_rank_deficiency_check(sys)
        assert rep.satisfied
        assert rep.bound == sys.n * sys.m - sys.m * (sys.m - 1) // 2
        null = skew_null_vectors(sys)
        assert null.shape[0] == sys.m * (sys.m - 1) // 2
        jg = assemble_Jg(sys, symmetric=True).full
        assert np.abs(null @ jg).max() < 1e-8
        got += 1
    assert got >= 3


def test_skew_null_vectors_annihilate_parts_separately():
    out = None
    for seed in range(40):
        cand = _descent_system(4, 3, seed)
        if cand is not None and cand[1].m >= 2:
            out = cand
            break
    assert out is not None
    _, sys = out
    null = skew_null_vectors(sys)
    parts = assemble_Jg(sys, symmetric=True)
    assert np.abs(null @ parts.a_part).max() < 1e-8
    assert np.abs(null @ parts.x_part).max() < 1e-8
