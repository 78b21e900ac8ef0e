"""Weight matrices: dominance predicates, sampling, normalization, descent."""

import numpy as np
import pytest

from spherecon.graph import DirectedGraph, complete_graph, ring_graph
from spherecon.state import random_configuration
from spherecon.dynamics import iterate
from spherecon.weights import (DescentMatrix, WeightMatrix, descent_matrix,
                               is_strictly_diagonally_dominant,
                               left_scale_normalize, sample_sdd,
                               satisfies_sqrt2_condition)


def _wm(entries):
    entries = np.asarray(entries, dtype=float)
    n = entries.shape[0]
    return WeightMatrix(entries, DirectedGraph((entries > 0) & ~np.eye(n, dtype=bool)))


def pentagon_matrix():
    a = 3.0 * np.eye(5)
    for i in range(5):
        a[i, (i + 1) % 5] = 1.0
        a[i, (i - 1) % 5] = 1.0
    return WeightMatrix(a, ring_graph(5))


def test_sdd_predicate():
    assert is_strictly_diagonally_dominant(_wm([[3, 1], [1, 3]]))
    assert not is_strictly_diagonally_dominant(_wm([[1, 1], [1, 1]]))
    assert is_strictly_diagonally_dominant(pentagon_matrix())


def test_sqrt2_condition():
    assert satisfies_sqrt2_condition(_wm([[3, 1], [1, 3]]))
    assert satisfies_sqrt2_condition(_wm([[1.5, 1], [1, 1.5]]))
    assert not satisfies_sqrt2_condition(_wm([[1.4, 1], [1, 1.4]]))
    # pentagon: 3 > 2*sqrt(2) = 2.828...
    assert satisfies_sqrt2_condition(pentagon_matrix())


def test_sample_sdd_by_construction():
    a = sample_sdd(complete_graph(3), margin=0.5, symmetric=False, seed=1)
    assert is_strictly_diagonally_dominant(a)


def test_sample_sdd_sqrt2_margin():
    for seed in range(20):
        a = sample_sdd(complete_graph(4), margin=0.45, symmetric=True, seed=seed)
        assert satisfies_sqrt2_condition(a)


def test_sample_sdd_symmetric_requires_symmetric_graph():
    directed_ring = DirectedGraph.from_edges(3, [(1, 2), (2, 3), (3, 1)])
    with pytest.raises(ValueError):
        sample_sdd(directed_ring, margin=0.1, symmetric=True, seed=0)


def test_sample_sdd_zero_structure_matches_graph():
    g = ring_graph(5)
    a = sample_sdd(g, margin=0.1, symmetric=True, seed=5)
    for i in range(5):
        for j in range(5):
            if i != j:
                assert (a.entries[i, j] > 0) == g.adjacency[i, j]


def test_sample_sdd_symmetric_output():
    a = sample_sdd(complete_graph(5), margin=0.2, symmetric=True, seed=9)
    assert np.array_equal(a.entries, a.entries.T)


def test_is_symmetric_is_exact():
    a = sample_sdd(complete_graph(3), margin=0.1, symmetric=True, seed=1)
    assert a.is_symmetric()
    raised = a.entries.copy()
    raised[0, 1] += 5e-6  # within the default rtol of np.allclose
    assert not WeightMatrix(raised, a.graph).is_symmetric()


def test_sample_sdd_deterministic():
    a = sample_sdd(complete_graph(4), margin=0.1, symmetric=False, seed=17)
    b = sample_sdd(complete_graph(4), margin=0.1, symmetric=False, seed=17)
    assert np.array_equal(a.entries, b.entries)


def test_descent_matrix_arithmetic():
    md = descent_matrix(_wm([[3, 1], [1, 3]]), slack=0.25)
    assert md.alpha == pytest.approx(5.0)
    assert np.allclose(md.entries, [[2, -1], [-1, 2]])


def test_descent_matrix_spd_for_symmetric_source():
    a = sample_sdd(complete_graph(5), margin=0.1, symmetric=True, seed=2)
    md = descent_matrix(a, slack=0.25)
    assert np.allclose(md.entries, md.entries.T)
    assert np.linalg.eigvalsh(md.entries).min() > 0


def test_descent_potential_complement():
    # tr(X^T (alpha I - A) X) = alpha n - tr(X^T A X) on unit-row X
    from spherecon.dynamics import potential
    a = sample_sdd(complete_graph(4), margin=0.3, symmetric=True, seed=3)
    md = descent_matrix(a, slack=0.5)
    c = random_configuration(4, 3, seed=4)
    va = potential(a, c)
    vm = float(np.einsum("ij,ik,jk->", md.entries, c.rows, c.rows))
    assert vm == pytest.approx(md.alpha * 4 - va, rel=1e-12)


def test_left_scale_normalize():
    b = left_scale_normalize(_wm([[3, 1], [1, 3]]))
    assert np.allclose(b.entries, [[1, 1 / 3], [1 / 3, 1]])
    ident = left_scale_normalize(_wm(np.eye(3)))
    assert np.allclose(ident.entries, np.eye(3))
    # idempotence
    assert np.allclose(left_scale_normalize(b).entries, b.entries)


def test_left_scale_normalize_preserves_iteration():
    a = sample_sdd(complete_graph(4), margin=0.2, symmetric=False, seed=6)
    c = random_configuration(4, 3, seed=7)
    c1 = iterate(a, c)
    c2 = iterate(left_scale_normalize(a), c)
    assert np.allclose(c1.rows, c2.rows, atol=1e-12)


def test_weight_matrix_rejects_negative_entries():
    with pytest.raises(ValueError):
        WeightMatrix(np.array([[1.0, -0.1], [0.1, 1.0]]), complete_graph(2))


def test_descent_matrix_invariants():
    a = sample_sdd(complete_graph(3), margin=0.1, symmetric=True, seed=8)
    md = descent_matrix(a, slack=0.25)
    assert isinstance(md, DescentMatrix)
    assert md.alpha > a.entries.sum(axis=1).max()
    assert np.allclose(md.entries, md.alpha * np.eye(3) - a.entries)
