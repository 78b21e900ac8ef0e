"""The iteration map, potential, trajectory runner, and descent mode."""

import tracemalloc

import numpy as np
import pytest

from spherecon import dynamics, loops
from spherecon.dynamics import (AT_MAX_ITER, FIXED_POINT, QUASI_PERIODIC, RELATIVE_EQUILIBRIUM,
                                ZERO_NORM, _step, find_nonconsensus_fixed_point, fixed_point_residual,
                                iterate, pad_agents, potential, run, run_batch)
from spherecon.fixedpoint_rank import compute_D
from spherecon.graph import (DirectedGraph, complete_graph,
                             random_strongly_connected,
                             random_symmetric_connected)
from spherecon.state import (Configuration, agent_blocks, classify_configuration,
                             consensus_configuration, random_configuration, tangent_basis,
                             unit_rows)
from spherecon.tolerances import (QP_EXCURSION, QP_EXPONENT_MARGIN, QP_NEUTRAL_BAND, QP_RETURN_TOL,
                                  RE_FIT_TOL, RE_ORBIT_MARGIN, RE_STEP_FLOOR, STEP_FILTER_MARGIN)
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
    res = run(a, c0, potential=True)
    assert res.min_potential_step >= -1e-10
    assert res.converged


def test_descent_mode_descends_potential():
    a = sample_sdd(complete_graph(5), margin=0.1, symmetric=True, seed=9)
    md = descent_matrix(a, slack=0.25)
    c0 = random_configuration(5, 3, seed=10)
    # the descent matrix alpha*I - A is symmetric, so its own potential, which is
    # n*alpha - tr(X^T A X) on the sphere, never falls
    res = run(md, c0, potential=True)
    assert res.min_potential_step >= -1e-10


def test_kernel_potential_steps_match_the_quadratic_form_along_the_walk():
    # the kernel takes tr(X^T M X) from its steps, sum_i ||(M X)_i|| x_i . F(X)_i;
    # `potential` sums the quadratic form. Along the trajectory walked with the
    # kernel's own step, the smallest steps agree within 64 ulps of the largest
    # potential (the two sums round differently; 6 ulps is the largest gap seen)
    for case in range(12):
        n, d = 3 + case % 6, 2 + case % 4
        a = sample_sdd(random_symmetric_connected(n, 0.5, 100 + case), 0.1, True, seed=200 + case)
        m = descent_matrix(a, 0.25) if case % 2 else a
        c0 = random_configuration(n, d, seed=300 + case)
        res = run(m, c0, potential=True, max_iter=2000)
        walk = [c0.rows]
        for _ in range(res.iterations):
            walk.append(_step(m.entries, walk[-1])[0])
        assert np.array_equal(walk[-1], res.final.rows)
        v = np.array([potential(m, Configuration._unchecked(rows)) for rows in walk])
        assert len(v) > 10
        assert abs(np.diff(v).min() - res.min_potential_step) <= 64 * np.finfo(float).eps * abs(
            v).max()


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


def test_iterate_keeps_the_steps_bits():
    # no second normalization of the rows the step returns
    rng = np.random.default_rng(44)
    for case in range(200):
        n, d = int(rng.integers(2, 9)), int(rng.integers(2, 6))
        symmetric = bool(case % 2)
        g = (random_symmetric_connected if symmetric else random_strongly_connected)(
            n, 0.5, 9400 + case)
        a = sample_sdd(g, margin=0.1, symmetric=symmetric, seed=9600 + case)
        c = random_configuration(n, d, seed=9800 + case)
        assert np.array_equal(iterate(a, c).rows, _step(a.entries, c.rows)[0])


@pytest.mark.parametrize("d", [2, 5, 7, 8, 9, 12])
def test_every_step_adds_a_rows_squares_left_to_right(d):
    # one row-norm rule at every d, below numpy's pairwise width (8 columns)
    # and above it: the one-step map, `iterate` and the kernel's first step
    # equal a sum of z_j^2 over j = 0, 1, ... in order, to the last bit
    n, count = 10, 120
    mats = np.stack([sample_sdd(complete_graph(n), 0.1, bool(t % 2), seed=9900 + t).entries
                     for t in range(count)])
    starts = np.stack([random_configuration(n, d, seed=10_000 + t).rows for t in range(count)])
    z = mats @ starts
    total = np.zeros(z.shape[:-1])
    for j in range(d):
        total += z[..., j] ** 2
    norms = np.sqrt(total)
    rows = z / norms[..., None]
    assert np.array_equal(_step(mats, starts)[1], norms)
    assert all(np.array_equal(iterate(m, Configuration._unchecked(x.copy())).rows, r)
               for m, x, r in zip(mats, starts, rows))
    assert np.array_equal(run_batch(mats, starts, max_iter=1).rows, rows)


def _per_trial_run(entries, rows, fp_tol, max_iter):
    """The per-trial step loop the lockstep kernel replaced, kept as its
    reference: (final rows, iterations, residual, potential history). The
    potential tr(X^T M X) of each state is taken as the kernel takes it, from
    the step out of it: sum_i ||(M X)_i|| x_i . F(X)_i."""
    history = []
    for k in range(max_iter + 1):
        nxt, norms = _step(entries, rows)
        history.append(np.einsum("i,id,id->", norms, rows, nxt))
        residual = float(np.linalg.norm(nxt - rows))
        if residual <= fp_tol or k == max_iter:
            break
        rows = nxt
    return rows, k, residual, np.asarray(history)


def _least_step(history):
    """The smallest change of a potential history over a step, inf without
    a step: the reduction the kernel keeps instead of the history."""
    return np.diff(history).min() if len(history) > 1 else np.inf


def _lockstep_against_per_trial_loop(max_iter=300):
    """Plain and descent iterations on symmetric and non-symmetric weights,
    batched by (n, d) so that trials of very different lengths share a run,
    each checked against the per-trial loop bit for bit; returns the
    iteration counts."""
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
        groups.setdefault((n, d), []).append((m, rows))
    lengths = []
    for members in groups.values():
        mats, starts = (np.stack(x) for x in zip(*members))
        out = run_batch(mats, starts, fp_tol=1e-12, max_iter=max_iter, potential=True)
        assert ZERO_NORM not in out.status
        for t, (m, rows) in enumerate(members):
            final, iters, residual, history = _per_trial_run(m, rows, 1e-12, max_iter)
            assert np.array_equal(Configuration(out.rows[t]).rows, Configuration(final).rows)
            assert out.iters[t] == iters
            assert out.residual[t] == residual
            assert out.min_potential_step[t] == _least_step(history)
            lengths.append(iters)
            if iters == max_iter:
                assert residual > 1e-12
    return lengths


def test_lockstep_matches_per_trial_loop():
    lengths = _lockstep_against_per_trial_loop(max_iter=300)
    assert len(lengths) == 240 and min(lengths) < 50 and lengths.count(300) > 0


@pytest.mark.parametrize("padded", [False, True])
def test_lockstep_matches_per_trial_loop_across_the_pairwise_width(padded):
    # the kernel and the reference loop's `_step` add each row's squares
    # column by column at every d: at d = 6 and 7, below the width from which
    # numpy's own reduction adds in pairs, and at d = 8 and 9 above it. Mixed
    # n, run as one call per (n, d) or as one padded call per d
    rng = np.random.default_rng(43)
    by_d = {}
    for case in range(80):
        n, d = int(rng.integers(2, 11)), (6, 7, 8, 9)[case % 4]
        symmetric = bool(case // 4 % 2)
        g = (random_symmetric_connected if symmetric else random_strongly_connected)(
            n, 0.5, 9000 + case)
        a = sample_sdd(g, margin=0.1, symmetric=symmetric, seed=9100 + case)
        m = descent_matrix(a, slack=0.25).entries if case % 4 == 0 else a.entries
        by_d.setdefault(d, []).append((m, random_configuration(n, d, seed=9200 + case).rows))
    lengths = []
    for members in by_d.values():
        mats, starts = (list(x) for x in zip(*members))
        outcomes = {}
        if padded:
            entries, rows, agents = pad_agents(mats, starts)
            out = run_batch(entries, rows, max_iter=200, potential=True, agents=agents)
            for t, rows in enumerate(starts):
                outcomes[t] = (out.rows[t, :len(rows)], out.iters[t], out.residual[t],
                               out.min_potential_step[t])
        else:
            shapes = {}
            for t, rows in enumerate(starts):
                shapes.setdefault(len(rows), []).append(t)
            for ts in shapes.values():
                out = run_batch(np.stack([mats[t] for t in ts]), np.stack([starts[t] for t in ts]),
                                max_iter=200, potential=True)
                for pos, t in enumerate(ts):
                    outcomes[t] = (out.rows[pos], out.iters[pos], out.residual[pos],
                                   out.min_potential_step[pos])
        for t, (m, start) in enumerate(members):
            rows, iters, residual, least = outcomes[t]
            final, ref_iters, ref_residual, ref_history = _per_trial_run(m, start, 1e-12, 200)
            assert np.array_equal(rows, final) and iters == ref_iters
            assert residual == ref_residual
            assert least == _least_step(ref_history)
            lengths.append(int(iters))
    assert len(lengths) == 80 and min(lengths) < 50 and lengths.count(200) > 0


def _assert_matches_per_trial_run(out, t, m, start, max_iter):
    """Trial t of a run_batch result with potential tracking against the
    per-trial loop."""
    final, iters, residual, history = _per_trial_run(m, start, 1e-12, max_iter)
    assert np.array_equal(out.rows[t], final) and out.iters[t] == iters
    assert out.residual[t] == residual
    assert out.min_potential_step[t] == _least_step(history)


@pytest.mark.parametrize("block_steps, block_floats", [
    (1, 2 ** 15), (2, 2 ** 15), (3, 2 ** 15), (5, 2 ** 15), (32, 100),
])
def test_block_boundaries_match_per_trial_loop(monkeypatch, block_steps, block_floats):
    # max_iter + 1 = 301 steps is no multiple of 2, 3 or 5, so the last block
    # is cut short; with 100 floats the block length follows the working set
    monkeypatch.setattr(dynamics, "BLOCK_STEPS", block_steps)
    monkeypatch.setattr(dynamics, "BLOCK_FLOATS", block_floats)
    lengths = _lockstep_against_per_trial_loop(max_iter=300)
    if block_floats == 2 ** 15:  # every block but the last has block_steps steps
        converged = {k % block_steps for k in lengths if k < 300}
        assert {0, block_steps - 1} <= converged  # a block's first and last step
        assert max(lengths) >= 3 * block_steps  # smallest potential steps span blocks
    # a trial that converges at step 0 from consensus, beside two that do not
    a = [sample_sdd(complete_graph(4), 0.1, True, seed=s).entries for s in range(3)]
    starts = [consensus_configuration(4, np.array([0.6, 0.8])).rows] + [
        random_configuration(4, 2, seed=30 + s).rows for s in range(2)]
    out = run_batch(np.stack(a), np.stack(starts), max_iter=40, potential=True)
    for t in range(3):
        _assert_matches_per_trial_run(out, t, a[t], starts[t], 40)
    assert out.iters[0] == 0 and out.iters[1:].min() > 0
    # zero-norm failures on a block's first and second step and on step 1,
    # each with residual inf
    for fail_at in {1, block_steps, block_steps + 1}:
        m, start = _fails_at_step(fail_at)
        n = len(start)
        mats = [m] + [sample_sdd(complete_graph(n), 0.1, True, seed=s).entries for s in (1, 2)]
        starts = [start] + [random_configuration(n, 2, seed=40 + s).rows for s in (1, 2)]
        out = run_batch(np.stack(mats), np.stack(starts), max_iter=60, potential=True)
        assert (out.status == ZERO_NORM).tolist() == [True, False, False]
        rows, _, _, history = _per_trial_run(m, start, 0.0, fail_at - 1)
        assert out.iters[0] == fail_at - 1 and out.residual[0] == np.inf
        assert np.array_equal(out.rows[0], iterate(m, Configuration(rows)).rows)
        # the rows the trial keeps have no step out of them, so their potential
        # is NaN and the smallest step covers the states before them
        assert out.min_potential_step[0] == _least_step(history)
        for t in (1, 2):
            _assert_matches_per_trial_run(out, t, mats[t], starts[t], 60)


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
    rows, iters, residual, status = run_batch(np.stack(mats),
                                              np.stack([c.rows for c in starts]))
    assert (status == ZERO_NORM).tolist() == [False, False, True, False, False]
    assert iters[2] == 0 and residual[2] == np.inf
    assert np.array_equal(rows[2], antipodal)
    for t in (0, 1, 3, 4):
        assert residual[t] <= 1e-12
        assert np.array_equal(rows[t], run(mats[t], starts[t]).final.rows)
    with pytest.raises(ZeroDivisionError, match="agent 1"):
        run(ones, Configuration(antipodal))


def _per_shape_and_padded(mats, starts, fp_tol=1e-12, max_iter=300):
    """Trials of one d run as one padded call and as one call per n, each
    recording its potential; yields, per trial, its padded and its
    same-shape outcome (rows, iters, residual, status, smallest potential
    step), the padded rows stripped of their pad agents after a check that
    those stayed e_1."""
    entries, padded, agents = pad_agents(mats, starts)
    out = run_batch(entries, padded, fp_tol, max_iter, True, agents)
    shapes = {}
    for t, rows in enumerate(starts):
        shapes.setdefault(len(rows), []).append(t)
    alone = {}
    for members in shapes.values():
        ref = run_batch(np.stack([mats[t] for t in members]),
                        np.stack([starts[t] for t in members]), fp_tol=fp_tol,
                        max_iter=max_iter, potential=True)
        for pos, t in enumerate(members):
            alone[t] = (ref.rows[pos], ref.iters[pos], ref.residual[pos], ref.status[pos],
                        ref.min_potential_step[pos])
    for t, rows in enumerate(starts):
        n = len(rows)
        pad = out.rows[t, n:]
        assert np.array_equal(pad, np.eye(1, pad.shape[1]).repeat(len(pad), axis=0))
        yield (out.rows[t, :n], out.iters[t], out.residual[t], out.status[t],
               out.min_potential_step[t]), alone[t]


def _assert_same(padded, alone):
    rows, iters, residual, status, least = padded
    assert np.array_equal(rows, alone[0])
    assert iters == alone[1] and status == alone[3]
    assert residual == alone[2] or (np.isnan(residual) and np.isnan(alone[2]))
    assert least == alone[4]


def test_padded_lockstep_matches_one_call_per_shape():
    # mixed n in [2, 9] at each d in [2, 5]; symmetric and non-symmetric
    # weights, plain and descent matrices, in one call per d; some trials
    # stopped at max_iter
    rng = np.random.default_rng(41)
    by_d = {}
    for case in range(320):
        n, d = int(rng.integers(2, 10)), int(rng.integers(2, 6))
        symmetric = bool(case % 2)
        g = (random_symmetric_connected if symmetric else random_strongly_connected)(
            n, 0.5, 6000 + case)
        a = sample_sdd(g, margin=0.1, symmetric=symmetric, seed=7000 + case)
        m = descent_matrix(a, slack=0.25).entries if case % 3 == 0 else a.entries
        by_d.setdefault(d, []).append((m, random_configuration(n, d, seed=8000 + case).rows))
    lengths = []
    for members in by_d.values():
        mats, starts = (list(x) for x in zip(*members))
        for padded, alone in _per_shape_and_padded(mats, starts):
            _assert_same(padded, alone)
            lengths.append(int(padded[1]))
    assert len(by_d) == 4 and min(lengths) < 50 and lengths.count(300) > 0


def _fails_at_step(step):
    """Agent 2 flips its sign each step, agents 3 .. step + 1 pass it on with
    a delay of one step each, and the last agent sums agent 1 and the end of
    that line, so from x_1 = x_2 = ... the last agent's row image first
    vanishes on the given step."""
    n = step + 2
    m = np.zeros((n, n))
    m[0, 0], m[1, 1] = 1.0, -1.0
    for i in range(2, n - 1):
        m[i, i - 1] = 1.0
    m[n - 1, 0] = m[n - 1, n - 2] = 1.0
    start = np.tile([1.0, 0.0], (n, 1))
    start[n - 1] = [0.0, 1.0]
    return m, start


def test_zero_norm_trial_inside_a_padded_batch():
    m, start = _fails_at_step(1)
    mats = [sample_sdd(complete_graph(n), 0.1, True, seed=n).entries for n in (5, 4, 2)]
    starts = [random_configuration(n, 2, seed=20 + n).rows for n in (5, 4, 2)]
    mats.insert(1, m)
    starts.insert(1, start)
    outcomes = list(_per_shape_and_padded(mats, starts))
    for padded, alone in outcomes:
        _assert_same(padded, alone)
    failed = outcomes[1][0]
    # it fails on step 1 and keeps the count of step 0, with residual inf
    assert failed[3] == ZERO_NORM and failed[1] == 0 and failed[2] == np.inf
    assert [o[0][3] == ZERO_NORM for o in outcomes] == [False, True, False, False]
    with pytest.raises(ZeroDivisionError, match="agent 3"):
        iterate(m, Configuration(failed[0]))


def test_padded_step_inside_the_screen_band_is_decided_exactly():
    # a trial whose squared step at step 6 lies within the screen's margin
    # above fp_tol^2 runs past it, and with fp_tol at that step stops there.
    # Under OpenBLAS, this trial's padded square at step 6 exceeds
    # fp_tol * fp_tol and its root differs from the exact residual, so only
    # the exact path stops it and records the right residual.
    a = sample_sdd(random_symmetric_connected(4, 0.5, 9), 0.1, True, seed=10)
    start = random_configuration(4, 3, seed=11).rows
    _, _, step6, _ = _per_trial_run(a.entries, start, 0.0, 6)
    others = [sample_sdd(complete_graph(n), 0.1, True, seed=60 + n) for n in (7, 9)]
    mats = [a.entries] + [o.entries for o in others]
    starts = [start] + [random_configuration(n, 3, seed=70 + n).rows for n in (7, 9)]
    for fp_tol, stop in ((step6 * (1.0 - 1e-10), False), (step6, True)):
        assert fp_tol ** 2 <= step6 ** 2 <= fp_tol ** 2 * (1.0 + STEP_FILTER_MARGIN)
        outcomes = list(_per_shape_and_padded(mats, starts, fp_tol, 40))
        for padded, alone in outcomes:
            _assert_same(padded, alone)
        final, iters, residual, _ = _per_trial_run(a.entries, start, fp_tol, 40)
        rows, k, res = outcomes[0][0][:3]
        assert np.array_equal(rows, final) and k == iters and res == residual
        assert (k == 6 and res == step6) if stop else k > 6


def _rotating_wave():
    """The directed 3-cycle of demos/rotating_wave.py and its start, from
    which the iteration locks into an equilateral wave turning rigidly."""
    g = DirectedGraph.from_edges(3, [(1, 2), (2, 3), (3, 1)])
    return (sample_sdd(g, margin=0.1, symmetric=False, seed=0).entries,
            random_configuration(3, 2, seed=10009).rows)


@pytest.mark.parametrize("block_steps", [1, 5, 32])
def test_rotating_wave_stops_as_relative_equilibrium_alone_and_padded(monkeypatch, block_steps):
    # the relative-equilibrium tests fall on fixed steps, so blocks of any
    # length stop the wave at the same step
    monkeypatch.setattr(dynamics, "BLOCK_STEPS", block_steps)
    m, start = _rotating_wave()
    alone = run_batch(m[None], start[None], max_iter=10 ** 5)
    other = sample_sdd(complete_graph(5), 0.1, True, seed=1).entries
    entries, rows, agents = pad_agents([other, m], [random_configuration(5, 2, seed=3).rows,
                                                    start])
    padded = run_batch(entries, rows, max_iter=10 ** 5, agents=agents)
    assert alone.status.tolist() == [RELATIVE_EQUILIBRIUM]
    assert padded.status.tolist() == [FIXED_POINT, RELATIVE_EQUILIBRIUM]
    k = int(alone.iters[0])
    assert padded.iters[1] == k == dynamics.RE_CHECK_EVERY - 1
    assert np.array_equal(padded.rows[1, :3], alone.rows[0])
    assert padded.residual[1] == alone.residual[0] > RE_STEP_FLOOR
    # the stop state and its step are those of the iteration itself
    final, iters, residual, _ = _per_trial_run(m, start, 0.0, k)
    assert np.array_equal(alone.rows[0], final) and alone.residual[0] == residual
    (key, rotation), = alone.rotations.items()
    assert key == 0 and list(padded.rotations) == [1]
    assert rotation.rank == 2 and rotation.off_orbit_modulus <= 1.0 - RE_ORBIT_MARGIN
    assert padded.rotations[1].angle == pytest.approx(rotation.angle, abs=1e-12)
    # the recorded angle is the heading change of every agent in one step
    x = Configuration(alone.rows[0])
    y = iterate(m, x).rows
    turns = np.angle((y[:, 0] + 1j * y[:, 1]) / (x.rows[:, 0] + 1j * x.rows[:, 1]))
    assert np.abs(turns) == pytest.approx(np.full(3, rotation.angle), abs=RE_FIT_TOL)
    res = run(m, Configuration(start), max_iter=10 ** 5)
    assert (res.status, res.converged, res.iterations) == (RELATIVE_EQUILIBRIUM, False, k)


@pytest.mark.parametrize("block_steps", [1, 5, 32])
def test_step_at_max_iter_is_measured_not_tested_for_rotation(monkeypatch, block_steps):
    # the wave passes its first test, at step RE_CHECK_EVERY - 1, unless that
    # step is max_iter: there it stops at max_iter without a test
    monkeypatch.setattr(dynamics, "BLOCK_STEPS", block_steps)
    m, start = _rotating_wave()
    k = dynamics.RE_CHECK_EVERY - 1
    for max_iter, status in ((k, AT_MAX_ITER), (k + 1, RELATIVE_EQUILIBRIUM)):
        out = run_batch(m[None], start[None], max_iter=max_iter)
        assert out.status.tolist() == [status] and out.iters.tolist() == [k]
        assert out.residual[0] > RE_STEP_FLOOR


def test_one_block_per_working_set_shape(monkeypatch):
    # the wave alone up to max_iter 500 meets no test step and no exit: its
    # blocks take two shapes, 15 of 32 steps and a last one of 21, and each
    # shape is built once, its state 0 holding each block's start
    builds, init = [], dynamics._Block.__init__

    def spy(block, steps, count, size, d):
        builds.append((steps, count))
        init(block, steps, count, size, d)

    monkeypatch.setattr(dynamics._Block, "__init__", spy)
    m, start = _rotating_wave()
    out = run_batch(m[None], start[None], max_iter=500)
    assert out.status.tolist() == [AT_MAX_ITER] and out.iters.tolist() == [500]
    assert builds == [(32, 1), (21, 1)]


def _splay(n, k, a, b):
    """The splay state of the directed n-ring a I + b P, its agents 2 pi k / n
    apart on the circle: by the ring's symmetry an exact relative
    equilibrium. Returns (matrix, rows, image rows, row norms)."""
    m = a * np.eye(n) + b * np.roll(np.eye(n), 1, axis=1)
    angles = 2.0 * np.pi * k * np.arange(n) / n
    rows = np.column_stack([np.cos(angles), np.sin(angles)])
    image, norms = _step(m, rows)
    return m, rows, image, norms


def _rotation_of(m, rows, image, norms):
    return dynamics._rotations(m[None], rows[None], image[None], norms[None],
                               np.array([len(rows)]))[0]


def test_relative_equilibrium_test_keeps_only_stable_settled_rotations():
    # stable: every modulus off the orbit is 0.857 or less
    stable = _splay(5, 1, 1.0, 0.5)
    rotation = _rotation_of(*stable)
    assert rotation.rank == 2 and rotation.off_orbit_modulus == pytest.approx(0.857, abs=1e-3)
    assert rotation.angle == pytest.approx(np.arctan2(0.5 * np.sin(2 * np.pi / 5),
                                                      1.0 + 0.5 * np.cos(2 * np.pi / 5)))
    # unstable (moduli up to 1.65) and neutral (every modulus 1), though exact
    assert _rotation_of(*_splay(5, 2, 1.0, 0.5)) is None
    assert _rotation_of(*_splay(6, 1, 1.0, -0.5)) is None
    # the stable one knocked off its rotation: a fit below RE_FIT_TOL that, over
    # 1 - rho, puts the rows too far from the rotation stops nothing
    m, rows, _, _ = stable
    kick = np.random.default_rng(0).standard_normal(rows.shape)
    for eps, stops in ((1e-10, False), (1e-12, True)):
        moved = unit_rows(rows + eps * kick)
        image, norms = _step(m, moved)
        u, _, vt = np.linalg.svd(moved.T @ image)
        fit = np.linalg.norm(moved @ u @ vt - image)
        assert fit <= RE_FIT_TOL
        assert (2.0 * fit <= RE_FIT_TOL * (1.0 - rotation.off_orbit_modulus)) == stops
        assert (_rotation_of(m, moved, image, norms) is not None) == stops


def test_trial_resting_at_a_fixed_point_is_no_rotation():
    # with fp_tol 0 this trial never converges: its steps soon fall to
    # round-off, below the step floor, so the tests pass it by
    a = sample_sdd(complete_graph(4), 0.1, False, seed=0)
    res = run(a, random_configuration(4, 2, seed=0), fp_tol=0.0,
              max_iter=dynamics.RE_CHECK_EVERY + 10)
    assert res.status == dynamics.AT_MAX_ITER and 0.0 < res.residual < RE_STEP_FLOOR


def _spiral(b, c, amplitude):
    """The splay state of the directed 4-ring I + b P + c P^T, its agents a
    quarter turn apart: an exact relative equilibrium. b and c put the
    complex pair of its reduced matrix just inside the unit circle, 1/14 of
    a turn apart. Returns the matrix, the pair, and a start moved off the
    splay state by amplitude along the pair's eigenvector, which spirals back
    onto it."""
    m = np.eye(4) + b * np.roll(np.eye(4), 1, axis=1) + c * np.roll(np.eye(4), -1, axis=1)
    angles = 0.5 * np.pi * np.arange(4)
    rows = np.column_stack([np.cos(angles), np.sin(angles)])
    image, norms = _step(m, rows)
    reduced = agent_blocks(m / norms[:, None], tangent_basis(rows).blocks,
                           np.swapaxes(tangent_basis(image).blocks, -1, -2))
    mu, vectors = np.linalg.eig(reduced)
    j = np.argmax(np.where(mu.imag > 0, np.abs(mu), 0.0))
    v = (vectors[:, j] * np.conj(vectors[0, j]) / abs(vectors[0, j])).real
    v -= v.mean()
    angles = angles + amplitude * v / np.abs(v).max()
    return m, mu[j], np.column_stack([np.cos(angles), np.sin(angles)])


def _first_returns(away):
    """Per trial of the (T, C) squared distances of a window's shapes from
    its first: the first state that, after one more than QP_EXCURSION away,
    lies within QP_RETURN_TOL; T if there is none. The whole-window rule the
    kernel's streamed detector (`dynamics._Watch`) replaced, kept as its
    reference."""
    exits, t = away > QP_EXCURSION ** 2, np.arange(len(away))[:, None]
    back = (away <= QP_RETURN_TOL ** 2) & (t > np.where(exits.any(0), exits.argmax(0), len(away)))
    return np.where(back.any(0), back.argmax(0), len(away))


def test_spiral_onto_a_focus_never_stops_as_quasi_periodic(monkeypatch):
    # two constructed relative equilibria whose complex pair has modulus
    # 1 - 2e-4 and 1 - 5e-4: a start 0.03 off spirals back, sweeping a full
    # turn around the focus about every 14 steps. It is too slow a rotation
    # to pass the RE test, so it runs on; it never stops as quasi-periodic
    cases = [_spiral(0.891481, 0.55961, 0.03), _spiral(0.890636, 0.558264, 0.03)]
    for (_, pair, _), eps in zip(cases, (2e-4, 5e-4)):
        assert abs(pair) == pytest.approx(1.0 - eps, abs=1e-6)
        assert np.angle(pair) == pytest.approx(2.0 * np.pi / 14, abs=1e-6)
    mats, starts = (np.stack(x) for x in zip(*[(m, start) for m, _, start in cases]))
    out = run_batch(mats, starts, max_iter=20_000)
    assert set(out.status) <= {RELATIVE_EQUILIBRIUM, AT_MAX_ITER} and not out.turns
    # the spirals pass the turn and step tests; only the exponents stop them:
    # the circle's and the next exponent are the pair's, equal, and the
    # first spiral's sits inside the neutral band, the second's outside it
    states, norms = [starts], []
    for _ in range(dynamics.TURN_WINDOW):
        rows, step_norms = _step(mats, states[-1])
        states.append(rows)
        norms.append(step_norms)
    shapes = loops.shapes(np.array(states))
    window = (np.array(states), np.array(norms),
              _first_returns(loops.squared_distances(shapes, shapes[0])))
    assert loops.turns(mats, *window)[0] == [None, None]
    monkeypatch.setattr(loops, "QP_NEUTRAL_BAND", np.inf)
    monkeypatch.setattr(loops, "QP_EXPONENT_MARGIN", -np.inf)
    loose = loops.turns(mats, *window)[0]
    assert all(turn is not None for turn in loose)
    (_, first, next_), (_, second, next2) = (turn.exponents for turn in loose)
    assert first == pytest.approx(next_, rel=1e-9) and second == pytest.approx(next2, rel=1e-9)
    assert -QP_EXPONENT_MARGIN < first < 0.0 and abs(first) <= QP_NEUTRAL_BAND < abs(second)


@pytest.mark.parametrize("block_steps", [1, 5, 32])
def test_quasi_periodic_stop_alone_and_padded(monkeypatch, block_steps):
    # started 0.08 off a focus like those above, a 13th of a turn apart, a
    # trial leaves it for an attracting circle. It stops at the same step
    # with the same turn and rows alone and padded beside two trials that
    # leave earlier, one of them symmetric and never tested; run on with the
    # stop switched off, it neither converges nor rotates rigidly
    monkeypatch.setattr(dynamics, "BLOCK_STEPS", block_steps)
    m, _, start = _spiral(0.908972, 0.548989, 0.08)
    alone = run_batch(m[None], start[None], max_iter=10 ** 5)
    assert alone.status.tolist() == [QUASI_PERIODIC] and list(alone.turns) == [0]
    turn = alone.turns[0]
    assert abs(turn.exponents[0]) <= QP_NEUTRAL_BAND and abs(turn.exponents[1]) <= QP_NEUTRAL_BAND
    assert turn.exponents[2] <= -QP_EXPONENT_MARGIN and turn.return_distance <= QP_RETURN_TOL
    k = int(alone.iters[0])
    assert (k + 1) % dynamics.RE_CHECK_EVERY == 0
    symmetric = sample_sdd(complete_graph(6), 0.1, True, seed=2).entries
    wave, wave_start = _rotating_wave()
    entries, rows, agents = pad_agents(
        [wave, symmetric, m], [wave_start, random_configuration(6, 2, seed=4).rows, start])
    padded = run_batch(entries, rows, max_iter=10 ** 5, agents=agents)
    assert padded.status.tolist() == [RELATIVE_EQUILIBRIUM, FIXED_POINT, QUASI_PERIODIC]
    assert padded.iters[2] == k and padded.turns == {2: turn}
    assert np.array_equal(padded.rows[2, :4], alone.rows[0])
    # the stop state is the iteration's own
    final, iters, residual, _ = _per_trial_run(m, start, 0.0, k)
    assert np.array_equal(alone.rows[0], final) and alone.residual[0] == residual
    monkeypatch.setattr(dynamics, "TURN_TESTS", 0)
    assert run_batch(m[None], start[None], max_iter=10 ** 5).status.tolist() == [AT_MAX_ITER]


def test_replay_retraces_the_kernel_alone_and_padded(monkeypatch):
    # from a state the kernel reached, a replay takes the kernel's own steps:
    # its states and row norms are the kernel's bit for bit, in blocks of any
    # length, alone and padded beside a larger trial
    monkeypatch.setattr(dynamics, "TURN_TESTS", 0)
    m, _, start = _spiral(0.908972, 0.548989, 0.08)

    def kernel(k):  # the kernel's state k
        return run_batch(m[None], start[None], fp_tol=0.0, max_iter=k).rows[0]

    stored, steps = kernel(1000), 70
    symmetric = sample_sdd(complete_graph(6), 0.1, True, seed=2).entries
    other = random_configuration(6, 2, seed=4).rows
    entries, _, _ = pad_agents([m, symmetric], [start, other])
    rows = np.stack([np.vstack([stored, [[1.0, 0.0]] * 2]), other])
    for block_steps in (1, 32):
        monkeypatch.setattr(dynamics, "BLOCK_STEPS", block_steps)
        alone, alone_norms = dynamics._replay(m[None], stored[None], steps)
        padded, padded_norms = dynamics._replay(entries, rows, steps)
        assert np.array_equal(padded[:, 0, :4], alone[:, 0])
        assert np.array_equal(padded_norms[:, 0, :4], alone_norms[:, 0])
        for j in (1, 33, steps):
            assert np.array_equal(alone[j, 0], kernel(1000 + j))
            assert np.array_equal(alone_norms[j - 1, 0], _step(m, alone[j - 1, 0])[1])


@pytest.mark.parametrize("block_steps", [1, 5, 32])
def test_return_detector_sees_every_return(monkeypatch, block_steps):
    # every window the quasi-periodic test looks at in a padded theorem2 batch
    # (n from 3 to 8, d = 2), replayed whole on its real agents: the window's
    # first return, as `loops.turns` finds it on its float64 states, is the
    # one its streamed detector saw, a window without one was seen to have
    # none, and the whole window gives the test's two-phase verdict, as a
    # Turn reads no state past its turn's end. Every replay of the test
    # carries its trials' real agents alone, no pad agent
    from spherecon.experiments import ExperimentConfig, _plan, _theorem2_trials
    monkeypatch.setattr(dynamics, "BLOCK_STEPS", block_steps)
    cfg = ExperimentConfig(seed=20260826, trials=40, d=2, symmetric=False)
    trials = _plan(cfg, _theorem2_trials(cfg))
    entries, starts, agents = pad_agents([descent_matrix(tr.weights, cfg.slack).entries
                                          for tr in trials], [tr.start for tr in trials])
    sizes = {entries[t, :n, :n].tobytes(): n for t, n in enumerate(agents)}
    windows, replays, turn_test, replay = [], [], dynamics._turn_test, dynamics._replay

    def spy(m, rows, firsts, back, state, counts):
        found = turn_test(m, rows, firsts, back, state, counts)
        windows.extend(zip(m, rows, firsts, back, [state] * len(m), counts, found))
        return found

    def replay_spy(m, rows, steps):
        replays.append(rows.shape[1])
        assert all(sizes.get(mat.tobytes()) == rows.shape[1] for mat in m)
        return replay(m, rows, steps)

    monkeypatch.setattr(dynamics, "_turn_test", spy)
    monkeypatch.setattr(dynamics, "_replay", replay_spy)
    run_batch(entries, starts, max_iter=5000, agents=agents)
    assert len(set(replays)) > 1
    returned = 0
    for m, rows, first, back, state, n, found in windows:
        states, norms = replay(m[None, :n, :n], rows[None, :n], state - first)
        shapes = loops.shapes(states)
        end = _first_returns(loops.squared_distances(shapes, shapes[0]))[0]
        assert back == (first + end if end < len(shapes) else -1)
        assert loops.turns(m[None, :n, :n], states, norms, np.array([end]))[0] == [found]
        returned += end < len(shapes)
    assert len(windows) >= 10 and 0 < returned < len(windows)


def test_watching_many_trials_keeps_the_peak_memory_bounded():
    # 256 copies of the quasi-periodic trial above, all watched and tested at
    # the same steps: a watched trial keeps O(n d) numbers and a test replays
    # TURN_STACK trials at a time, so the traced peak stays under 10 MB (6.7 MB
    # measured). A float32 record of the last 2081 shapes of each watched
    # trial would take 6.4 MB alone; kept beside the rest, it peaked at 13.9 MB
    m, _, start = _spiral(0.908972, 0.548989, 0.08)
    tracemalloc.start()
    try:
        out = run_batch(np.repeat(m[None], 256, axis=0), np.repeat(start[None], 256, axis=0),
                        max_iter=10 ** 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(out.status) == {QUASI_PERIODIC} and len(set(out.iters)) == 1
    assert peak < 10e6
