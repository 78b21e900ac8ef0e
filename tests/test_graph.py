"""Graph construction, connectivity predicates, and random samplers."""

import numpy as np
import pytest

from spherecon.graph import (DirectedGraph, adjacency_matrix, complete_graph,
                             is_strongly_connected, is_symmetric,
                             random_connected_er, random_strongly_connected,
                             random_symmetric_connected, ring_graph,
                             structure_matrix)


def test_complete_graph_edges():
    assert np.array_equal(complete_graph(2).adjacency, [[False, True], [True, False]])
    assert complete_graph(3).adjacency.sum() == 6
    assert np.array_equal(complete_graph(1).adjacency, [[False]])


def test_complete_graph_symmetric_and_connected():
    for n in range(2, 7):
        g = complete_graph(n)
        assert is_symmetric(g)
        assert is_strongly_connected(g)


def test_strongly_connected_predicate():
    assert is_strongly_connected(complete_graph(4))
    ring = DirectedGraph.from_edges(3, [(1, 2), (2, 3), (3, 1)])
    assert is_strongly_connected(ring)
    assert not is_strongly_connected(DirectedGraph.from_edges(2, [(1, 2)]))


def test_symmetry_predicate():
    assert is_symmetric(ring_graph(5))
    assert not is_symmetric(DirectedGraph.from_edges(3, [(1, 2), (2, 3), (3, 1)]))
    assert is_symmetric(DirectedGraph.from_edges(1, []))


def test_ring_graph():
    g = ring_graph(5)
    assert g.adjacency.sum() == 10
    assert np.array_equal(g.adjacency.sum(axis=1), [2] * 5)
    assert np.array_equal(ring_graph(3).adjacency, complete_graph(3).adjacency)
    with pytest.raises(ValueError):
        ring_graph(2)


def test_structure_matrix_unit_diagonal():
    g = DirectedGraph.from_edges(3, [(1, 2)])
    b = structure_matrix(g)
    assert np.array_equal(np.diag(b), np.ones(3))
    assert b[0, 1] == 1 and b[1, 0] == 0


def test_structure_matrix_symmetric_graph_is_symmetric_matrix():
    b = structure_matrix(random_symmetric_connected(6, 0.4, seed=3))
    assert np.array_equal(b, b.T)


def test_adjacency_matrix_no_self_loops():
    a = adjacency_matrix(ring_graph(4))
    assert np.array_equal(np.diag(a), np.zeros(4))
    assert a.sum() == 8


def test_random_strongly_connected_backbone_only():
    g = random_strongly_connected(4, 0.0, seed=7)
    assert g.adjacency.sum() == 4
    assert is_strongly_connected(g)


def test_random_strongly_connected_full():
    g = random_strongly_connected(4, 1.0, seed=7)
    assert np.array_equal(g.adjacency, complete_graph(4).adjacency)


def test_random_strongly_connected_intermediate():
    g = random_strongly_connected(6, 0.3, seed=42)
    assert is_strongly_connected(g)
    assert 6 <= g.adjacency.sum() <= 30


def test_random_samplers_deterministic():
    for maker in (lambda s: random_strongly_connected(5, 0.4, s),
                  lambda s: random_symmetric_connected(5, 0.4, s),
                  lambda s: random_connected_er(5, 0.5, s)):
        assert np.array_equal(maker(11).adjacency, maker(11).adjacency)


def test_random_strongly_connected_always_connected():
    for seed in range(30):
        g = random_strongly_connected(5, 0.2, seed)
        assert is_strongly_connected(g)


def test_random_connected_er_symmetric_and_connected():
    for seed in range(30):
        g = random_connected_er(4, 0.5, seed)
        assert is_symmetric(g)
        assert is_strongly_connected(g)


def test_graph_json_round_trip():
    g = random_strongly_connected(6, 0.3, seed=1)
    back = DirectedGraph.from_json(g.to_json())
    assert np.array_equal(back.adjacency, g.adjacency) and back.to_json() == g.to_json()


def test_graph_rejects_self_loops_and_bad_nodes():
    with pytest.raises(ValueError, match=r"self-loop \(1,1\)"):
        DirectedGraph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError, match=r"edge \(1,4\) out of range"):
        DirectedGraph.from_edges(3, [(1, 4)])
    with pytest.raises(ValueError, match="node count must be positive"):
        DirectedGraph.from_edges(0, [])
    with pytest.raises(ValueError, match="self-loop"):
        DirectedGraph(np.eye(2, dtype=bool))


def test_adjacency_is_a_read_only_copy():
    adj = np.array([[False, True], [True, False]])
    g = DirectedGraph(adj)
    adj[0, 1] = False
    assert g.adjacency[0, 1] and g.n == 2
    with pytest.raises(ValueError):
        g.adjacency[1, 0] = False
