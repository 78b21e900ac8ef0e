"""Sphere-product configurations, tangent bases, projections, classification."""

import warnings

import numpy as np
import pytest

from spherecon.fixedpoint_rank import matrix_rank
from spherecon.state import (RANK_TOL, Configuration, agent_blocks,
                             block_diagonal_matrix, classify_configuration,
                             consensus_configuration, numerical_rank,
                             random_configuration, relative_rank, start_rows,
                             tangent_basis, tangent_projectors, unit_rows)


def pentagon():
    angles = 2.0 * np.pi * np.arange(5) / 5.0
    return Configuration(np.column_stack([np.cos(angles), np.sin(angles)]))


def test_normalize_rows():
    c = Configuration(np.array([[2.0, 0.0], [0.0, -5.0]]))
    assert np.allclose(c.rows, [[1, 0], [0, -1]])
    unit = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(Configuration(unit).rows, unit)
    with pytest.raises(ValueError):
        Configuration(np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_unit_rows_rejects_nan_and_infinite_rows():
    # NaN fails every comparison, so a NaN norm once passed the zero-norm
    # check; an infinite row once became a NaN row with only a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^row 1 has non-finite norm$"):
                Configuration(np.array([[bad, 0.0], [1.0, 0.0]]))
            with pytest.raises(ValueError, match="^row 2 has non-finite norm$"):
                unit_rows(np.array([[1.0, 0.0], [0.0, bad]]))
    with pytest.raises(ValueError, match="^row 2 has non-finite norm$"), \
            np.errstate(over="ignore"):
        Configuration(np.array([[1.0, 0.0], [1e200, 1e200]]))  # the norm overflows


def test_unit_rows_names_the_trial_and_row_of_a_stack():
    rows = np.ones((2, 2, 2))
    rows[1, 1] = 0.0
    with pytest.raises(ValueError, match="^trial 1, row 2 has near-zero norm$"):
        unit_rows(rows)
    rows[1, 1], rows[0, 1, 0] = 1.0, np.nan
    with pytest.raises(ValueError, match="^trial 0, row 2 has non-finite norm$"):
        unit_rows(rows)

    class Generator:
        def __init__(self, draw):
            self.draw = draw

        def standard_normal(self, shape):
            return self.draw

    draws = [np.ones((3, 2)), np.ones((3, 2))]
    draws[1][2] = [0.0, np.inf]
    with pytest.raises(ValueError, match="^trial 1, row 3 has non-finite norm$"):
        start_rows([Generator(draw) for draw in draws], 3, 2)
    with pytest.raises(ValueError, match="^row 1 has near-zero norm$"):
        Configuration(np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_random_configuration_unit_rows_and_determinism():
    c = random_configuration(6, 4, seed=3)
    assert np.allclose(np.linalg.norm(c.rows, axis=1), 1.0, atol=1e-12)
    assert np.array_equal(c.rows, random_configuration(6, 4, seed=3).rows)


def test_random_configuration_mean_small():
    c = random_configuration(100_000, 3, seed=12)
    assert np.linalg.norm(c.rows.mean(axis=0)) < 0.02


def test_consensus_configuration():
    c = consensus_configuration(3, np.array([0.0, 0.0, 1.0]))
    assert np.allclose(c.rows, np.tile([0, 0, 1.0], (3, 1)))
    assert classify_configuration(c).is_consensus
    assert numerical_rank(c) == 1
    with pytest.raises(ValueError):
        consensus_configuration(3, np.array([0.0, 0.0, 2.0]))


def test_numerical_rank():
    assert numerical_rank(consensus_configuration(4, np.array([1.0, 0.0]))) == 1
    antipodal = Configuration(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert numerical_rank(antipodal) == 1
    assert numerical_rank(pentagon()) == 2


def test_numerical_rank_rotation_invariant():
    c = random_configuration(5, 3, seed=21)
    rng = np.random.default_rng(22)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    assert numerical_rank(Configuration(c.rows @ q)) == numerical_rank(c)


def test_classification():
    all_east = Configuration(np.tile([1.0, 0.0], (3, 1)))
    assert classify_configuration(all_east).kind == "consensus"
    antipodal = Configuration(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert classify_configuration(antipodal).kind == "antipodal"
    cls = classify_configuration(pentagon())
    assert cls.kind == "higher-rank" and cls.rank == 2


def test_vector_ordering_and_unvec_round_trip():
    c = random_configuration(4, 3, seed=5)
    x = c.vector
    assert np.array_equal(x[:3], c.rows[0])  # agent-major ordering
    assert np.array_equal(x.reshape(4, 3), c.rows)  # inverse of vector


def test_tangent_basis_d2_quarter_turn():
    c = Configuration(np.array([[1.0, 0.0], [0.0, 1.0]]))
    basis = tangent_basis(c)
    assert np.allclose(basis.blocks[0], [[0.0], [-1.0]])


def test_tangent_basis_invariants():
    for n, d, seed in [(3, 2, 1), (4, 3, 2), (5, 5, 3)]:
        c = random_configuration(n, d, seed)
        basis = tangent_basis(c)
        for i in range(n):
            b = basis.blocks[i]
            assert b.shape == (d, d - 1)
            assert np.allclose(b.T @ b, np.eye(d - 1), atol=1e-12)
            assert np.allclose(b.T @ c.rows[i], 0.0, atol=1e-12)


def test_tangent_basis_matches_per_agent_householder():
    for n, d, seed in [(4, 3, 4), (6, 5, 5)]:
        c = random_configuration(n, d, seed)
        blocks = tangent_basis(c).blocks
        assert blocks.shape == (n, d, d - 1)
        for i, x in enumerate(c.rows):
            v = x.copy()
            v[0] -= 1.0 if x[0] < 0 else -1.0
            h = np.eye(d) - 2.0 * np.outer(v, v) / (v @ v)
            assert np.allclose(blocks[i], h[:, 1:], rtol=0.0, atol=1e-15)


def test_tangent_basis_d3_north_pole():
    c = Configuration(np.array([[0.0, 0.0, 1.0]]))
    b = tangent_basis(c).blocks[0]
    assert np.allclose(b.T @ b, np.eye(2), atol=1e-12)
    assert np.allclose(b.T @ np.array([0.0, 0.0, 1.0]), 0.0, atol=1e-12)


def test_projection_matrix():
    c = Configuration(np.array([[1.0, 0.0]]))
    assert np.allclose(block_diagonal_matrix(tangent_projectors(c.rows)), [[0, 0], [0, 1]])
    c = random_configuration(4, 3, seed=9)
    p = block_diagonal_matrix(tangent_projectors(c.rows))
    assert np.allclose(p @ p, p, atol=1e-12)
    r = tangent_basis(c).block_diagonal()
    assert np.allclose(p, r @ r.T, atol=1e-12)


def test_agent_blocks_is_the_dense_kronecker_product():
    # blockdiag(L) (C ot I) blockdiag(R), and (C ot I) blockdiag(R) without L,
    # per matrix of a stack with two leading axes
    rng = np.random.default_rng(31)
    coeffs = rng.standard_normal((2, 3, 4, 4))
    left = rng.standard_normal((2, 3, 4, 2, 5))
    right = rng.standard_normal((2, 3, 4, 5, 3))
    with_left = agent_blocks(coeffs, right, left)
    without = agent_blocks(coeffs, right[..., :2, :])
    assert with_left.shape == (2, 3, 8, 12) and without.shape == (2, 3, 8, 12)
    for b in range(2):
        for t in range(3):
            dense = np.kron(coeffs[b, t], np.eye(5)) @ block_diagonal_matrix(right[b, t])
            assert np.allclose(with_left[b, t],
                               block_diagonal_matrix(left[b, t]) @ dense, atol=1e-12)
            assert np.allclose(without[b, t], np.kron(coeffs[b, t], np.eye(2))
                               @ block_diagonal_matrix(right[b, t, :, :2]), atol=1e-12)


def test_configuration_json_round_trip():
    c = random_configuration(3, 4, seed=14)
    again = Configuration.from_json(c.to_json())
    assert np.allclose(again.rows, c.rows, atol=1e-15)
    assert again.n == 3 and again.d == 4


def test_relative_rank_keeps_the_three_rules_it_replaced():
    # the cutoff s > tol * s[0] as numerical_rank, fixedpoint_rank's guarded
    # rank and the determinant check's full-rank test each wrote it, and on a
    # stack as the relative-equilibrium test wrote it
    rng = np.random.default_rng(30)
    for k in range(2000):
        size = int(rng.integers(1, 7))
        s = np.sort(10.0 ** rng.uniform(-12, 2, size))[::-1]
        s[rng.random(size) < 0.3] = 0.0
        s = np.sort(s)[::-1]
        if k % 4 == 0 and size > 1:
            s[-1] = RANK_TOL * s[0]  # exactly at the cutoff: not counted
        tol = RANK_TOL if k % 2 else 1e-6
        expected = 0 if s[0] == 0.0 else int(np.sum(s > tol * s[0]))
        assert relative_rank(s, tol) == expected
        assert (relative_rank(s) == s.size) == bool(s[-1] > RANK_TOL * s[0])
    for shape in ((0, 3), (3, 0), (0, 0)):
        assert matrix_rank(np.zeros(shape)) == 0
    assert matrix_rank(np.zeros((3, 4))) == 0 and relative_rank(np.zeros(3)) == 0
    stack = np.sort(10.0 ** rng.uniform(-12, 2, (60, 4)), axis=1)[:, ::-1]
    stack[::3] = 0.0
    assert np.array_equal(relative_rank(stack), (stack > RANK_TOL * stack[:, :1]).sum(axis=-1))
    assert np.array_equal(relative_rank(stack), [relative_rank(s) for s in stack])
    assert type(relative_rank(stack[0])) is int
    assert numerical_rank(random_configuration(5, 3, seed=31)) == 3
