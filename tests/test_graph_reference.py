"""The array generators and sample_sdd against a reference copy of the
edge-tuple implementation they replaced: same adjacency, same graph hash,
same weight entries, bit for bit, and the same random stream consumed.

The reference below keeps graphs as (n, frozenset of 1-based edge tuples)
and draws one scalar uniform per candidate pair, as the tuple code did.
"""

import hashlib
import json

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from spherecon.experiments import graph_hash
from spherecon.graph import (random_connected_er, random_strongly_connected,
                             random_symmetric_connected)
from spherecon.weights import sample_sdd

PROBS = (0.0, 0.3, 0.57, 1.0)


def _cases(probs, count=500):
    """count (seed, n, edge_prob) cases, seed = 0, 1, ..., covering every
    n in [2, 9] with every edge probability in probs."""
    return [(seed, 2 + seed % 8, probs[(seed // 8) % len(probs)]) for seed in range(count)]


# --- reference: the edge-tuple implementation ------------------------------

def _ref_strongly_connected_check(n, edges):
    if n == 1:
        return True
    if not edges:
        return False
    rows = [i - 1 for i, _ in edges]
    cols = [j - 1 for _, j in edges]
    m = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    ncomp, _ = connected_components(m, directed=True, connection="strong")
    return ncomp == 1


def _ref_hamiltonian_cycle_edges(n, rng):
    order = rng.permutation(n) + 1
    return {(int(order[k]), int(order[(k + 1) % n])) for k in range(n)}


def _ref_add_symmetric_pairs(n, edge_prob, rng, edges):
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) not in edges and rng.random() < edge_prob:
                edges |= {(i, j), (j, i)}
    return frozenset(edges)


def _ref_random_strongly_connected(n, edge_prob, seed):
    rng = np.random.default_rng(seed)
    edges = _ref_hamiltonian_cycle_edges(n, rng)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and (i, j) not in edges and rng.random() < edge_prob:
                edges.add((i, j))
    return frozenset(edges)


def _ref_random_connected_er(n, edge_prob, seed):
    rng = np.random.default_rng(seed)
    for _ in range(100_000):
        edges = _ref_add_symmetric_pairs(n, edge_prob, rng, set())
        if _ref_strongly_connected_check(n, edges):
            return edges
    raise RuntimeError(f"no connected sample in 100000 draws (n={n}, p={edge_prob})")


def _ref_random_symmetric_connected(n, edge_prob, seed):
    rng = np.random.default_rng(seed)
    edges = set()
    for i, j in _ref_hamiltonian_cycle_edges(n, rng):
        edges.add((i, j))
        edges.add((j, i))
    return _ref_add_symmetric_pairs(n, edge_prob, rng, edges)


def _ref_sample_sdd(n, edges, margin, symmetric, seed):
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    for i, j in sorted(edges):
        a[i - 1, j - 1] = 1.0 - rng.random()
    if symmetric:
        a = 0.5 * (a + a.T)
    off = a.sum(axis=1)
    a[np.diag_indices(n)] = (1.0 + margin) * off
    a[np.diag_indices(n)] = np.where(off > 0, a.diagonal(), 1.0)
    return a


def _ref_graph_hash(n, edges):
    text = json.dumps({"n": n, "edges": sorted(edges)})
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _ref_adjacency(n, edges):
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        adj[i - 1, j - 1] = True
    return adj


# --- the comparison ---------------------------------------------------------

# ER at edge probability 0 is never connected and only reaches the
# 100 000-draw rejection limit, so its cases leave 0 out
GENERATORS = [
    (random_strongly_connected, _ref_random_strongly_connected, PROBS, (False,)),
    (random_symmetric_connected, _ref_random_symmetric_connected, PROBS, (False, True)),
    (random_connected_er, _ref_random_connected_er, PROBS[1:], (False, True)),
]


@pytest.mark.parametrize("make, ref_make, probs, settings", GENERATORS,
                         ids=[g[0].__name__ for g in GENERATORS])
def test_generator_and_sample_sdd_match_edge_tuple_reference(make, ref_make, probs, settings):
    for seed, n, p in _cases(probs):
        g = make(n, p, seed)
        edges = ref_make(n, p, seed)
        assert g.adjacency.tobytes() == _ref_adjacency(n, edges).tobytes(), (seed, n, p)
        assert graph_hash(g) == _ref_graph_hash(n, edges)
        for symmetric in settings:
            w = sample_sdd(g, 0.1, symmetric, seed + 7)
            ref = _ref_sample_sdd(n, edges, 0.1, symmetric, seed + 7)
            assert w.entries.tobytes() == ref.tobytes(), (seed, n, p, symmetric)


def test_vector_draw_equals_scalar_draws():
    # the generators rely on this: one rng.random(k) is k scalar draws, and
    # the stream is left where the scalar draws leave it
    for k in range(40):
        vec, scalar = np.random.default_rng(k), np.random.default_rng(k)
        assert vec.random(k).tobytes() == np.array([scalar.random() for _ in range(k)]).tobytes()
        assert vec.bit_generator.state == scalar.bit_generator.state

