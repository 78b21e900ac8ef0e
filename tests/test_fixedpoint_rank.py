"""Parametric residual g(A, D, x), duplication matrix, and rank analyses of
the residual Jacobian at pinned fixed points."""

import numpy as np
import pytest

from spherecon import fixedpoint_rank
from spherecon.dynamics import find_nonconsensus_fixed_point
from spherecon.fixedpoint_rank import (FixedPointSystem, assemble_Jg,
                                       build_fixed_point_system,
                                       compute_D, duplication_matrix,
                                       matrix_rank, pin_configuration,
                                       residual_g, skew_null_vectors,
                                       symmetric_rank_deficiency_check, vech)
from spherecon.graph import (DirectedGraph, complete_graph, random_strongly_connected,
                             ring_graph, structure_matrix)
from spherecon.state import (RANK_TOL, Configuration, block_diagonal_matrix,
                             consensus_configuration, random_configuration,
                             tangent_projectors)
from spherecon.weights import WeightMatrix, sample_sdd

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
    fd = np.zeros((sys.n * sys.m, sys.n * sys.n))
    for k in range(sys.n * sys.n):
        i, j = divmod(k, sys.n)
        da = np.zeros((sys.n, sys.n))
        da[i, j] = h
        plus = residual_g(sys.a + da, sys.dvec, sys.x)
        minus = residual_g(sys.a - da, sys.dvec, sys.x)
        fd[:, k] = (plus - minus) / (2.0 * h)
    # a_part is a factor of the A-block: compare Gram matrices, not columns
    gram = parts.a_part @ parts.a_part.T
    denom = max(np.linalg.norm(gram), 1.0)
    assert np.linalg.norm(gram - fd @ fd.T) / denom < 1e-6


def test_symmetric_rank_deficiency_with_null_vectors():
    """The symmetric Jacobian's rank equals its bound nm - m(m-1)/2, not only
    stays below it, at descent-found fixed points and at circulant n-gons
    (the linearize benchmark's points: n = 16 and 64, ring and complete,
    d = 2 and 3), and the skew null vectors annihilate it."""
    descent = [out[1] for out in map(lambda seed: _descent_system(4, 3, seed), range(40))
               if out is not None and out[1].m >= 2]
    assert len(descent) >= 3
    rng = np.random.default_rng(40)
    ngons = [_circulant_ngon_system(rng, n, d, ring)
             for n in (16, 64) for ring in (False, True) for d in (2, 3)]
    for sys in descent + ngons:
        rep = symmetric_rank_deficiency_check(sys)
        assert rep.bound == sys.n * sys.m - sys.m * (sys.m - 1) // 2
        assert rep.satisfied and rep.rank == rep.bound, (sys.n, sys.m, rep.rank)
        null = skew_null_vectors(sys)
        assert null.shape[0] == sys.m * (sys.m - 1) // 2
        jg = assemble_Jg(sys, symmetric=True).full
        assert np.abs(null @ jg).max() < 1e-8
        assert rep.null_residual == np.abs(null @ jg).max()


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


# --------------------------------------------------------------------------
# Structure-aware assembly and the QR-reduced rank, against dense references
# --------------------------------------------------------------------------

def _svd_rank(mat, rtol=RANK_TOL):
    """Rank counted from a plain SVD of the matrix itself."""
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def _parent_shaped_jg(sys, symmetric):
    """The dense assembly the structure-aware one replaced: Kronecker A-block
    (times the duplication matrix when symmetric) and a D-block over all n^2
    entries of D, n^2 - n of them zero columns."""
    n, m = sys.n, sys.m
    ixt = np.kron(np.eye(n), sys.x.T)
    a_part = ixt @ duplication_matrix(n) if symmetric else ixt
    d_part = -ixt * np.eye(n).reshape(-1) + 0.0
    x_full = (np.kron(sys.a - np.diag(sys.dvec), np.eye(m))
              @ block_diagonal_matrix(tangent_projectors(sys.x)))
    return np.hstack([a_part, d_part, x_full[:, m:]])


def _random_system(rng, n, m):
    x = rng.standard_normal((n, m))
    x /= np.linalg.norm(x, axis=1)[:, None]
    a = rng.uniform(size=(n, n))
    return FixedPointSystem(a + a.T, rng.uniform(0.5, 2.0, n), x, m)


def test_matrix_rank_matches_plain_svd():
    rng = np.random.default_rng(31)
    mats = [np.zeros((0, 5)), np.zeros((5, 0)), np.zeros((0, 0)),
            np.zeros((4, 7)), np.zeros((7, 4)),
            rng.standard_normal((9, 4)), rng.standard_normal((6, 6)),
            rng.standard_normal((4, 30))]
    for _ in range(40):
        rows, cols = rng.integers(1, 40, size=2)
        k = int(rng.integers(1, min(rows, cols) + 1))
        mats.append(rng.standard_normal((rows, k)) @ rng.standard_normal((k, cols)))
    for mat in mats:
        assert matrix_rank(mat) == _svd_rank(mat), mat.shape
    assert matrix_rank(np.zeros((4, 7))) == 0


def test_symmetric_a_block_equals_duplication_product():
    # and the x-block equals its dense Kronecker product bit for bit
    rng = np.random.default_rng(32)
    for n in [*range(1, 10), 64]:
        for m in {1, min(n, 2), min(n, 3)}:
            sys = _random_system(rng, n, m)
            parts = assemble_Jg(sys, symmetric=True)
            ref = np.kron(np.eye(n), sys.x.T) @ duplication_matrix(n)
            assert np.array_equal(parts.a_part, ref)
            x_ref = (np.kron(sys.a - np.diag(sys.dvec), np.eye(m))
                     @ block_diagonal_matrix(tangent_projectors(sys.x)))[:, m:]
            assert np.array_equal(parts.x_part, x_ref)


def test_symmetric_factor_matches_scaled_duplication_product(monkeypatch):
    """The compact factor of the symmetric A-block has the Gram matrix of the
    duplication product with its off-diagonal columns scaled by 1/sqrt 2
    (orthonormal coordinates of Sym(n)), and the rank check takes the
    singular values of [factor | D-block | x-block], nm - m(m-1)/2 + n +
    (n-1)m columns wide, equal to those of the scaled dense Jacobian."""
    taken = []

    def recording(mat):
        taken.append((mat.shape, singular_values(mat)))
        return taken[-1][1]

    singular_values = fixedpoint_rank._singular_values
    monkeypatch.setattr(fixedpoint_rank, "_singular_values", recording)
    rng = np.random.default_rng(38)
    for n in [*range(1, 10), 64]:
        for m in sorted({1, min(n, 2), min(n, 3)}):
            sys = _random_system(rng, n, m)
            width = n * m - m * (m - 1) // 2
            factor = fixedpoint_rank._symmetric_factor(sys.x)
            assert factor.shape == (n * m, width)
            lo, hi = np.triu_indices(n)
            ref = (np.kron(np.eye(n), sys.x.T) @ duplication_matrix(n)
                   * np.where(lo == hi, 1.0, np.sqrt(0.5)))
            gram = ref @ ref.T
            assert np.abs(factor @ factor.T - gram).max() <= 1e-13 * np.abs(gram).max(), (n, m)
            taken.clear()
            rep = symmetric_rank_deficiency_check(sys)
            assert [shape for shape, _ in taken] == [(n * m, width + n + (n - 1) * m)]
            parts = assemble_Jg(sys, symmetric=True)
            dense = np.linalg.svd(np.hstack([ref, parts.d_part, parts.x_part]), compute_uv=False)
            s = taken[0][1]
            assert np.abs(s - dense[:s.size]).max() <= 1e-13 * dense[0], (n, m)
            assert rep.min_singular_value == s[-1]


def test_jg_d_block_finite_difference():
    out = None
    for seed in range(20):
        out = _descent_system(3, 2, seed)
        if out is not None:
            break
    assert out is not None
    _, sys = out
    parts = assemble_Jg(sys, symmetric=False)
    assert parts.d_part.shape == (sys.n * sys.m, sys.n)
    h = 1e-6
    for i in range(sys.n):
        dd = np.zeros(sys.n)
        dd[i] = h
        fd = (residual_g(sys.a, sys.dvec + dd, sys.x)
              - residual_g(sys.a, sys.dvec - dd, sys.x)) / (2.0 * h)
        col = parts.d_part[:, i]
        assert np.linalg.norm(col - fd) / max(np.linalg.norm(col), 1.0) < 1e-6


def test_jg_column_counts():
    rng = np.random.default_rng(33)
    for n, m in [(1, 1), (3, 2), (5, 3), (8, 1)]:
        sys = _random_system(rng, n, m)
        tangent = n * m - m
        assert assemble_Jg(sys, symmetric=True).full.shape == (n * m, n * (n + 1) // 2 + n + tangent)
        assert assemble_Jg(sys, symmetric=False).full.shape == (n * m, n * m + n + tangent)


def test_rank_paths_never_build_the_duplication_matrix(monkeypatch):
    def refuse(n):
        raise AssertionError("duplication_matrix called")

    monkeypatch.setattr(fixedpoint_rank, "duplication_matrix", refuse)
    sys = _random_system(np.random.default_rng(34), 6, 3)
    assemble_Jg(sys, symmetric=False)
    matrix_rank(assemble_Jg(sys, symmetric=True).full)
    symmetric_rank_deficiency_check(sys)


def _circulant_ngon_system(rng, n, d, ring=False):
    """Regular n-gon, rotated into R^d, under symmetric circulant weights on
    the complete graph (or the ring): a fixed point of rank 2."""
    row = np.zeros(n)
    for k in range(1, 2 if ring else n // 2 + 1):
        row[k] = row[n - k] = rng.uniform(0.5, 1.5)
    row[0] = 1.5 * row.sum()
    a = row[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]
    angles = 2.0 * np.pi * np.arange(n) / n
    polygon = np.zeros((n, d))
    polygon[:, 0], polygon[:, 1] = np.cos(angles), np.sin(angles)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    graph = ring_graph(n) if ring else complete_graph(n)
    return build_fixed_point_system(WeightMatrix(a, graph), Configuration(polygon @ q))


def test_ranks_match_parent_shaped_dense_svd():
    """Random pinned configurations, consensus fixed points and n-gon fixed
    points (symmetric rank deficient by one): both ranks equal the plain-SVD
    ranks of the parent-shaped matrix."""
    rng = np.random.default_rng(35)
    deficient = 0
    for t in range(300):
        n, d = int(rng.integers(2, 13)), int(rng.integers(2, 5))
        kind = t % 3
        if kind == 2 and n >= 3:
            sys = _circulant_ngon_system(rng, n, d)
        else:
            a = sample_sdd(complete_graph(n), margin=0.1, symmetric=True,
                           seed=int(rng.integers(2**31)))
            if kind == 1:
                xbar = rng.standard_normal(d)
                c = consensus_configuration(n, xbar / np.linalg.norm(xbar))
            else:
                c = random_configuration(n, d, int(rng.integers(2**31)))
            sys = build_fixed_point_system(a, c)
        assert matrix_rank(assemble_Jg(sys, symmetric=False).full) \
            == _svd_rank(_parent_shaped_jg(sys, symmetric=False))
        sym_rank = _svd_rank(_parent_shaped_jg(sys, symmetric=True))
        assert matrix_rank(assemble_Jg(sys, symmetric=True).full) == sym_rank
        assert symmetric_rank_deficiency_check(sys).rank == sym_rank
        deficient += sym_rank < sys.n * sys.m
    assert deficient >= 50


def test_vech_and_skew_null_vectors_match_loop_reference():
    rng = np.random.default_rng(36)
    for n in range(1, 9):
        b = rng.standard_normal((n, n))
        ref = np.concatenate([b[j:, j] for j in range(n)])
        assert vech(b).tobytes() == ref.tobytes()
    for n, m in [(2, 1), (3, 2), (5, 3), (7, 4)]:
        sys = _random_system(rng, n, m)
        sys.x[0] = np.eye(m)[0]  # exact zeros, whose sign the reference fixes
        vecs = []
        for p in range(m):
            for q in range(p + 1, m):
                r0 = np.zeros((m, m))
                r0[p, q], r0[q, p] = 1.0, -1.0
                vecs.append((sys.x @ r0.T).reshape(-1))
        ref = np.asarray(vecs).reshape(len(vecs), n * m)
        assert skew_null_vectors(sys).tobytes() == ref.tobytes()


def test_graph_masked_a_block_matches_dense_masked_reference():
    """The compressed, graph-masked A-block against the dense masked
    (I_n ot X^T): equal Gram matrices, and the rank of the assembled Jacobian
    equals the plain-SVD rank of the dense one. Covers random strongly
    connected graphs, ring n-gon fixed points, and agents with fewer closed
    neighbours than m (directed cycles, the edgeless graph)."""
    rng = np.random.default_rng(37)
    cases = []
    for _ in range(30):
        n, m = int(rng.integers(2, 10)), int(rng.integers(1, 5))
        m = min(m, n)
        g = random_strongly_connected(n, float(rng.uniform(0.0, 0.6)),
                                      int(rng.integers(2**31)))
        cases.append((_random_system(rng, n, m), g))
    for n in range(3, 13):
        sys = _circulant_ngon_system(rng, n, int(rng.integers(2, 5)), ring=True)
        cases.append((sys, ring_graph(n)))
    for n, m in [(3, 3), (5, 3), (6, 4), (4, 2)]:
        cases.append((_random_system(rng, n, m), random_strongly_connected(n, 0.0, n)))
        cases.append((_random_system(rng, n, m), DirectedGraph.from_edges(n, [])))
    for sys, g in cases:
        n, m = sys.n, sys.m
        parts = assemble_Jg(sys, symmetric=False, graph=g)
        assert parts.a_part.shape == (n * m, n * m)
        ref = np.kron(np.eye(n), sys.x.T) * structure_matrix(g).reshape(-1)
        gram = parts.a_part @ parts.a_part.T
        assert np.abs(gram - ref @ ref.T).max() < 1e-12 * n, (n, m)
        dense = np.hstack([ref, parts.d_part, parts.x_part])
        assert matrix_rank(parts.full) == _svd_rank(dense), (n, m)
