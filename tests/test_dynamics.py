"""The iteration map, potential, trajectory runner, and descent mode."""

import numpy as np
import pytest

from spherecon.dynamics import (_step, find_nonconsensus_fixed_point,
                                fixed_point_residual, iterate, potential, run,
                                run_batch)
from spherecon.fixedpoint_rank import compute_D
from spherecon.graph import (DirectedGraph, complete_graph,
                             random_strongly_connected,
                             random_symmetric_connected)
from spherecon.state import (Configuration, classify_configuration,
                             consensus_configuration, random_configuration)
from spherecon.weights import (WeightMatrix, descent_matrix,
                               left_scale_normalize, sample_sdd)

from test_weights import pentagon_matrix


def _a22():
    return WeightMatrix(np.array([[3.0, 1.0], [1.0, 3.0]]), complete_graph(2))


def test_iterate_consensus_is_fixed():
    a = sample_sdd(complete_graph(4), margin=0.1, symmetric=False, seed=1)
    c = consensus_configuration(4, np.array([0.0, 1.0, 0.0]))
    assert np.allclose(iterate(a, c).rows, c.rows, atol=1e-15)


def test_iterate_two_agent_example():
    c = Configuration(np.array([[1.0, 0.0], [0.0, 1.0]]))
    out = iterate(_a22(), c)
    s = 1.0 / np.sqrt(10.0)
    assert np.allclose(out.rows, [[3 * s, s], [s, 3 * s]], atol=1e-15)


def test_iterate_pentagon_fixed():
    from test_state import pentagon
    assert fixed_point_residual(pentagon_matrix(), pentagon()) < 1e-12


def test_normalization_diagonal():
    """The diagonal of D(MX) is the reciprocal of compute_D's row norms."""
    a = sample_sdd(complete_graph(3), margin=0.2, symmetric=True, seed=2)
    c = consensus_configuration(3, np.array([1.0, 0.0]))
    assert np.allclose(1.0 / compute_D(a, c),
                       1.0 / a.entries.sum(axis=1), atol=1e-14)
    ident = WeightMatrix(np.eye(2), DirectedGraph.from_edges(2, []))
    c2 = Configuration(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(1.0 / compute_D(ident, c2), 1.0)
    assert np.allclose(1.0 / compute_D(_a22(), c2),
                       np.full(2, 1.0 / np.sqrt(10.0)), atol=1e-15)


def test_potential():
    a = sample_sdd(complete_graph(4), margin=0.3, symmetric=True, seed=3)
    c = consensus_configuration(4, np.array([0.0, 0.0, 1.0]))
    assert potential(a, c) == pytest.approx(a.entries.sum(), rel=1e-14)
    c2 = Configuration(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert potential(_a22(), c2) == pytest.approx(6.0)
    # invariance under a common rotation of all rows
    c3 = random_configuration(4, 3, seed=4)
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    assert potential(a, Configuration(c3.rows @ q)) == pytest.approx(
        potential(a, c3), rel=1e-12)


def test_run_from_consensus():
    a = sample_sdd(complete_graph(3), margin=0.1, symmetric=True, seed=6)
    c = consensus_configuration(3, np.array([1.0, 0.0, 0.0]))
    res = run(a, c)
    assert res.converged and res.iterations == 0 and res.residual < 1e-15


def test_run_monotone_potential_symmetric():
    a = sample_sdd(complete_graph(5), margin=0.1, symmetric=True, seed=7)
    c0 = random_configuration(5, 3, seed=8)
    res = run(a, c0, a_for_potential=a)
    assert np.diff(res.potential_history).min() >= -1e-10
    assert res.converged


def test_descent_mode_descends_potential():
    a = sample_sdd(complete_graph(5), margin=0.1, symmetric=True, seed=9)
    md = descent_matrix(a, slack=0.25)
    c0 = random_configuration(5, 3, seed=10)
    res = run(md, c0, a_for_potential=a)
    assert np.diff(res.potential_history).max() <= 1e-10


def test_run_limits_are_fixed_points():
    for seed in range(5):
        a = sample_sdd(complete_graph(4), margin=0.1, symmetric=False, seed=seed)
        res = run(a, random_configuration(4, 2, seed=100 + seed))
        assert res.converged
        assert fixed_point_residual(a, res.final) <= 1e-12


def test_unit_norm_preserved():
    a = sample_sdd(complete_graph(6), margin=0.1, symmetric=False, seed=11)
    c = random_configuration(6, 4, seed=12)
    for _ in range(10):
        c = iterate(a, c)
        assert np.allclose(np.linalg.norm(c.rows, axis=1), 1.0, atol=1e-12)


def test_left_diagonal_scaling_invariance():
    a = sample_sdd(complete_graph(4), margin=0.2, symmetric=False, seed=13)
    rng = np.random.default_rng(14)
    lam = rng.uniform(0.5, 2.0, size=4)
    scaled = WeightMatrix(lam[:, None] * a.entries, a.graph)
    c = random_configuration(4, 3, seed=15)
    assert np.allclose(iterate(a, c).rows, iterate(scaled, c).rows, atol=1e-12)


def test_alignment_positive_dots():
    a = sample_sdd(complete_graph(5), margin=0.1, symmetric=True, seed=16)
    c = random_configuration(5, 3, seed=17)
    y = iterate(a, c)
    assert np.einsum("ij,ij->i", c.rows, y.rows).min() > 0


def test_quantified_alignment_bound():
    # after unit-diagonal normalization, x_i . y_i >= sqrt(1 - a_i^2) where
    # a_i is the off-diagonal row sum
    rng = np.random.default_rng(18)
    for k in range(200):
        n = int(rng.integers(2, 6))
        a = sample_sdd(complete_graph(n), margin=0.1, symmetric=False,
                       seed=1000 + k)
        norm = left_scale_normalize(a)
        ai = norm.entries.sum(axis=1) - 1.0
        c = random_configuration(n, int(rng.integers(2, 5)), seed=2000 + k)
        y = iterate(norm, c)
        dots = np.einsum("ij,ij->i", c.rows, y.rows)
        assert np.all(dots >= np.sqrt(np.maximum(1.0 - ai ** 2, 0.0)) - 1e-12)


def test_find_nonconsensus_fixed_point_records_both_residuals():
    a = sample_sdd(complete_graph(3), margin=0.1, symmetric=True, seed=19)
    res = find_nonconsensus_fixed_point(a, random_configuration(3, 2, seed=20))
    assert res.converged
    assert res.classification is not None
    assert res.residual <= 1e-12
    assert np.isfinite(res.residual_weight)


def test_a_fixed_points_are_descent_fixed_points():
    from test_state import pentagon
    a = pentagon_matrix()
    md = descent_matrix(a, slack=0.25)
    c = pentagon()
    assert fixed_point_residual(md, c) < 1e-12


def test_descent_rank_distribution_has_both_ranks():
    ranks = set()
    for seed in range(40):
        a = sample_sdd(complete_graph(3), margin=0.1, symmetric=True, seed=seed)
        res = find_nonconsensus_fixed_point(
            a, random_configuration(3, 2, seed=500 + seed))
        ranks.add(classify_configuration(res.final, rank_tol=1e-6).rank)
    assert {1, 2} <= ranks


def test_zero_row_image_reports_agent():
    m = np.array([[1.0, 1.0], [1.0, 1.0]])
    c = Configuration(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    with pytest.raises(ZeroDivisionError):
        iterate(m, c)


def _per_trial_run(entries, rows, fp_tol, max_iter, weights):
    """The per-trial step loop the lockstep kernel replaced, kept as its
    reference: (final rows, iterations, residual, potential history)."""
    history = []
    for k in range(max_iter + 1):
        history.append(np.einsum("ij,ik,jk->", weights, rows, rows))
        nxt, _ = _step(entries, rows)
        residual = float(np.linalg.norm(nxt - rows))
        if residual <= fp_tol or k == max_iter:
            break
        rows = nxt
    return rows, k, residual, np.asarray(history)


def test_lockstep_matches_per_trial_loop():
    # plain and descent iterations on symmetric and non-symmetric weights,
    # batched by (n, d) so that trials of very different lengths share a run
    rng = np.random.default_rng(40)
    groups = {}
    for case in range(240):
        n, d = int(rng.integers(3, 9)), int(rng.integers(2, 6))
        symmetric = bool(case % 2)
        g = (random_symmetric_connected if symmetric else random_strongly_connected)(
            n, 0.5, 3000 + case)
        a = sample_sdd(g, margin=0.1, symmetric=symmetric, seed=4000 + case)
        m = descent_matrix(a, slack=0.25).entries if case % 3 == 0 else a.entries
        rows = random_configuration(n, d, seed=5000 + case).rows
        groups.setdefault((n, d), []).append((m, rows, a.entries))
    max_iter, lengths = 300, []
    for members in groups.values():
        mats, starts, weights = (np.stack(x) for x in zip(*members))
        out = run_batch(mats, starts, fp_tol=1e-12, max_iter=max_iter,
                        potential_weights=weights)
        assert not out.failed.any()
        for t, (m, rows, w) in enumerate(members):
            final, iters, residual, history = _per_trial_run(m, rows, 1e-12, max_iter, w)
            assert np.array_equal(Configuration(out.rows[t]).rows, Configuration(final).rows)
            assert out.iters[t] == iters
            assert out.residual[t] == residual
            assert np.array_equal(out.potential_histories[t], history)
            lengths.append(iters)
            if iters == max_iter:
                assert residual > 1e-12
    assert len(lengths) == 240 and min(lengths) < 50 and lengths.count(max_iter) > 0


def test_stopped_at_max_iter_is_not_converged():
    a = sample_sdd(complete_graph(5), margin=0.1, symmetric=True, seed=23)
    res = run(a, random_configuration(5, 3, seed=24), max_iter=3)
    assert res.iterations == 3 and not res.converged and res.residual > 1e-12


def test_zero_row_image_fails_only_its_trial():
    # the two-agent antipodal all-ones case inside a healthy batch
    ones, antipodal = np.ones((2, 2)), np.array([[1.0, 0.0], [-1.0, 0.0]])
    mats = [sample_sdd(complete_graph(2), 0.1, False, seed=s).entries for s in range(4)]
    starts = [random_configuration(2, 2, seed=10 + s) for s in range(4)]
    mats.insert(2, ones)
    starts.insert(2, Configuration(antipodal))
    rows, iters, residual, failed = run_batch(np.stack(mats),
                                              np.stack([c.rows for c in starts]))
    assert failed.tolist() == [False, False, True, False, False]
    assert iters[2] == 0 and residual[2] == np.inf
    assert np.array_equal(rows[2], antipodal)
    for t in (0, 1, 3, 4):
        assert residual[t] <= 1e-12
        assert np.array_equal(Configuration(rows[t]).rows, run(mats[t], starts[t]).final.rows)
    with pytest.raises(ZeroDivisionError, match="agent 1"):
        run(ones, Configuration(antipodal))
