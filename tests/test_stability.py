"""Projected Jacobian, reduced matrix, spectra, determinants, certificates."""

import numpy as np
import pytest

from spherecon import dynamics, stability
from spherecon.dynamics import find_nonconsensus_fixed_point, iterate, pad_agents, run
from spherecon.experiments import cmd_pentagon_demo
from spherecon.graph import complete_graph, random_symmetric_connected, ring_graph
from spherecon.state import (Configuration, consensus_configuration,
                             random_configuration, tangent_basis)
from spherecon.stability import (certificate_matrix, determinant_nonzero_check,
                                 differential_report, instability_certificate,
                                 positive_dot_neutrality_check,
                                 projected_jacobian, reduced_matrix,
                                 spectral_radius, trace_formula_check)
from spherecon.weights import WeightMatrix, left_scale_normalize, sample_sdd

from test_state import pentagon
from test_weights import pentagon_matrix


def _fd_directional(a, c, v, h=1e-6):
    """Central finite difference of the iteration map along direction v."""
    n, d = c.n, c.d
    plus = iterate(a, Configuration((c.vector + h * v).reshape(n, d)))
    minus = iterate(a, Configuration((c.vector - h * v).reshape(n, d)))
    return (plus.vector - minus.vector) / (2.0 * h)


def test_linearization_matches_blockwise_reference():
    # the block layout, element for element, against a loop over agent pairs
    for n, d, seed in [(3, 2, 1), (5, 3, 2), (6, 4, 3)]:
        g = random_symmetric_connected(n, 0.5, seed)
        a = sample_sdd(g, margin=0.1, symmetric=False, seed=seed)
        c = random_configuration(n, d, seed=100 + seed)
        z = a.entries @ c.rows
        norms = np.linalg.norm(z, axis=1)
        y_rows = z / norms[:, None]
        da = a.entries / norms[:, None]
        bx = tangent_basis(c).blocks
        by = tangent_basis(y_rows).blocks
        px = [np.eye(d) - np.outer(x, x) for x in c.rows]
        py = [np.eye(d) - np.outer(x, x) for x in y_rows]
        k = d - 1
        red = np.zeros((n * k, n * k))
        jac = np.zeros((n * d, n * d))
        cert = np.zeros((n * d, n * d))
        for i in range(n):
            for j in range(n):
                if da[i, j] != 0.0:
                    red[i * k:(i + 1) * k, j * k:(j + 1) * k] = da[i, j] * (by[i].T @ bx[j])
                    jac[i * d:(i + 1) * d, j * d:(j + 1) * d] = da[i, j] * (py[i] @ px[j])
                shifted = a.entries[i, j] - (norms[i] if i == j else 0.0)
                cert[i * d:(i + 1) * d, j * d:(j + 1) * d] = shifted * (px[i] @ px[j])
        assert np.array_equal(reduced_matrix(a, c), red)
        assert np.array_equal(projected_jacobian(a, c), jac)
        assert np.array_equal(certificate_matrix(a, c), cert)


def test_consensus_jacobian_kron_structure():
    a = sample_sdd(complete_graph(4), margin=0.2, symmetric=True, seed=1)
    xbar = np.array([0.0, 1.0, 0.0])
    c = consensus_configuration(4, xbar)
    j = projected_jacobian(a, c)
    da = a.entries / a.entries.sum(axis=1)[:, None]
    expected = np.kron(da, np.eye(3) - np.outer(xbar, xbar))
    assert np.allclose(j, expected, atol=1e-14)


def test_jacobian_finite_difference():
    rng = np.random.default_rng(2)
    for k in range(20):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(2, 5))
        a = sample_sdd(complete_graph(n), margin=0.1, symmetric=bool(k % 2),
                       seed=100 + k)
        c = random_configuration(n, d, seed=200 + k)
        j = projected_jacobian(a, c)
        v = tangent_basis(c).block_diagonal() @ rng.standard_normal(n * (d - 1))
        v /= np.linalg.norm(v)
        jv = j @ v
        fd = _fd_directional(a, c, v)
        assert np.linalg.norm(jv - fd) / np.linalg.norm(jv) < 1e-6


def test_jacobian_annihilates_normal_directions():
    a = sample_sdd(complete_graph(3), margin=0.1, symmetric=True, seed=3)
    c = random_configuration(3, 3, seed=4)
    j = projected_jacobian(a, c)
    v = np.zeros(9)
    v[3:6] = 2.0 * c.rows[1]  # direction along agent 2's own axis
    assert np.linalg.norm(j @ v) < 1e-12


def test_jacobian_factors_through_bases():
    a = sample_sdd(complete_graph(4), margin=0.1, symmetric=False, seed=5)
    c = random_configuration(4, 3, seed=6)
    rep = differential_report(a, c)
    rx = rep.basis_x.block_diagonal()
    ry = rep.basis_y.block_diagonal()
    assert np.allclose(rep.jacobian, ry @ rep.reduced @ rx.T, atol=1e-10)


def test_eigenvalue_multiset_at_fixed_points():
    # the nonzero spectrum of the full Jacobian coincides with the spectrum
    # of the reduced matrix at fixed points
    for seed in range(10):
        a = sample_sdd(complete_graph(3), margin=0.1, symmetric=True, seed=seed)
        res = find_nonconsensus_fixed_point(
            a, random_configuration(3, 2, seed=50 + seed))
        if res.residual_weight > 1e-12:
            continue
        c = res.final
        ej = np.linalg.eigvals(projected_jacobian(a, c))
        ej = np.sort_complex(ej[np.abs(ej) > 1e-10])
        em = np.sort_complex(np.linalg.eigvals(reduced_matrix(a, c)))
        em = em[np.abs(em) > 1e-10]
        assert len(ej) == len(em)
        remaining = list(em)
        for lam in ej:
            idx = int(np.argmin(np.abs(np.asarray(remaining) - lam)))
            assert abs(remaining[idx] - lam) < 1e-8
            remaining.pop(idx)


def test_consensus_spectral_radius_one():
    for seed, d in [(1, 2), (2, 3), (3, 4)]:
        a = sample_sdd(complete_graph(4), margin=0.1, symmetric=False, seed=seed)
        rng = np.random.default_rng(seed)
        xbar = rng.standard_normal(d)
        xbar /= np.linalg.norm(xbar)
        c = consensus_configuration(4, xbar)
        rep = differential_report(a, c)
        assert abs(rep.spectral_radius - 1.0) <= 1e-9
        assert np.abs(rep.eigenvalues).max() <= 1.0 + 1e-9


def test_determinant_basis_invariance():
    a = sample_sdd(complete_graph(4), margin=0.45, symmetric=True, seed=7)
    c = random_configuration(4, 3, seed=8)
    base = differential_report(a, c)
    rng = np.random.default_rng(9)

    def rotated(basis):
        blocks = []
        for b in basis.blocks:
            q, r = np.linalg.qr(rng.standard_normal((b.shape[1], b.shape[1])))
            q *= np.sign(np.diag(r))  # unique QR
            if np.linalg.det(q) < 0:
                q[:, 0] *= -1.0  # keep the orientation
            blocks.append(b @ q)
        from spherecon.state import TangentBasis
        return TangentBasis(tuple(blocks))

    for _ in range(5):
        red = reduced_matrix(a, c, rotated(base.basis_x), rotated(base.basis_y))
        assert abs(np.linalg.det(red) - base.det) <= 1e-9 * (1.0 + abs(base.det))


def test_determinant_nonzero_under_sqrt2():
    for k in range(50):
        a = sample_sdd(complete_graph(4), margin=0.45, symmetric=False, seed=k)
        c = random_configuration(4, 3, seed=1000 + k)
        chk = determinant_nonzero_check(a, c)
        assert chk.sqrt2_condition and chk.bound_satisfied


def test_determinant_nonzero_on_large_polygon():
    # the regular 64-gon in d = 3 under ring circulant weights with diagonal
    # 1.45 x the off-diagonal sum: |det| / prod(row norms) is about 1e-14
    # here, while sigma_min / sigma_max of the reduced matrix is 0.18
    n = 64
    a = 2.9 * np.eye(n)
    for i in range(n):
        a[i, (i + 1) % n] = a[i, (i - 1) % n] = 1.0
    angles = 2.0 * np.pi * np.arange(n) / n
    c = Configuration(np.column_stack([np.cos(angles), np.sin(angles), np.zeros(n)]))
    chk = determinant_nonzero_check(WeightMatrix(a, ring_graph(n)), c)
    assert chk.sqrt2_condition and chk.bound_satisfied
    assert chk.det != 0.0


def test_determinant_check_reports_condition():
    a = sample_sdd(complete_graph(3), margin=0.1, symmetric=True, seed=10)
    chk = determinant_nonzero_check(a, random_configuration(3, 2, seed=11))
    assert not chk.sqrt2_condition  # margin 0.1 < sqrt(2) - 1


def test_instability_certificate_consensus():
    a = sample_sdd(complete_graph(4), margin=0.1, symmetric=True, seed=12)
    c = consensus_configuration(4, np.array([1.0, 0.0, 0.0]))
    cert = instability_certificate(a, c)
    assert cert.label == "consensus-neutral"
    assert cert.spectral_radius == pytest.approx(1.0, abs=1e-9)


def test_instability_certificate_pentagon_neutral():
    cert = instability_certificate(pentagon_matrix(), pentagon())
    assert cert.label == "neutral-nonconsensus"
    assert cert.spectral_radius == pytest.approx(1.0, abs=1e-9)


def test_instability_certificate_rejects_nonfixed_points():
    a = sample_sdd(complete_graph(3), margin=0.1, symmetric=True, seed=13)
    with pytest.raises(ValueError):
        instability_certificate(a, random_configuration(3, 3, seed=14))


def test_descent_found_d3_points_unstable():
    found = 0
    for seed in range(60):
        a = sample_sdd(complete_graph(4), margin=0.1, symmetric=True, seed=seed)
        res = find_nonconsensus_fixed_point(
            a, random_configuration(4, 3, seed=3000 + seed))
        if (not res.converged or res.classification.is_consensus
                or res.classification.rank < 2 or res.residual_weight > 1e-9):
            continue
        cert = instability_certificate(a, res.final, fp_tol=1e-8)
        assert cert.label == "unstable-certified"
        assert cert.certificate_eigenvalue > 0
        assert cert.spectral_radius > 1.0 + 1e-7
        found += 1
        if found >= 5:
            break
    assert found >= 5


def test_certificate_is_positive_exactly_where_the_radius_passes_one():
    # across layers: at symmetric fixed points the descent search finds for d >= 3, the
    # certificate matrix's top eigenvalue passes CLASS_TOL exactly where the reduced
    # matrix's spectral radius passes 1 + CLASS_TOL
    from spherecon.experiments import ExperimentConfig, collect_descent_fixed_points
    from spherecon.tolerances import CLASS_TOL
    for seed, n, d in [(1, 4, 3), (20260826, 4, 3), (7, 5, 3), (3, 4, 4)]:
        cfg = ExperimentConfig(seed=seed, n=n, d=d, symmetric=True)
        points = collect_descent_fixed_points(cfg, count=40)
        assert len(points) == 40
        for a, c, _ in points:
            cert = instability_certificate(a, c)
            assert (cert.certificate_eigenvalue > CLASS_TOL) == (
                cert.spectral_radius > 1.0 + CLASS_TOL)


def test_trace_formula_random_configurations():
    for seed in range(20):
        n = 3 + seed % 3
        a = sample_sdd(complete_graph(n), margin=0.1, symmetric=True, seed=seed)
        c = random_configuration(n, 3, seed=400 + seed)
        chk = trace_formula_check(a, c)
        assert chk.match


def test_trace_formula_zero_at_consensus():
    a = sample_sdd(complete_graph(4), margin=0.1, symmetric=True, seed=15)
    for d in (2, 3, 5):
        xbar = np.zeros(d)
        xbar[0] = 1.0
        chk = trace_formula_check(a, consensus_configuration(4, xbar))
        assert abs(chk.rhs) < 1e-12 and chk.match


def test_trace_formula_positive_off_consensus_d3():
    a = sample_sdd(complete_graph(4), margin=0.1, symmetric=True, seed=16)
    chk = trace_formula_check(a, random_configuration(4, 3, seed=17))
    assert chk.rhs > 0


def test_trace_formula_requires_symmetric():
    a = sample_sdd(complete_graph(3), margin=0.1, symmetric=False, seed=18)
    with pytest.raises(ValueError):
        trace_formula_check(a, random_configuration(3, 3, seed=19))


def test_positive_dot_neutrality():
    assert positive_dot_neutrality_check(pentagon_matrix(), pentagon()) is True
    a = sample_sdd(complete_graph(3), margin=0.1, symmetric=True, seed=20)
    c = consensus_configuration(3, np.array([0.6, 0.8]))
    assert positive_dot_neutrality_check(a, c) is True
    # d = 3 is out of scope for this check
    assert positive_dot_neutrality_check(
        a, consensus_configuration(3, np.array([0.0, 0.0, 1.0]))) is None


def test_d2_reduced_matrix_right_stochastic_at_positive_fixed_points():
    a = pentagon_matrix()
    c = pentagon()
    red = reduced_matrix(a, c)
    assert np.allclose(red.sum(axis=1), 1.0, atol=1e-12)


def test_spectral_radius_matches_report():
    a = sample_sdd(complete_graph(3), margin=0.3, symmetric=True, seed=21)
    c = random_configuration(3, 4, seed=22)
    rep = differential_report(a, c)
    assert spectral_radius(a, c) == rep.spectral_radius
    # c is no fixed point, so the certificate is asked for at any residual
    assert instability_certificate(a, c, fp_tol=np.inf).spectral_radius == rep.spectral_radius
    assert determinant_nonzero_check(a, c).det == rep.det


def test_each_check_takes_one_step_per_point(monkeypatch):
    # one linearization per point: the residual, the reduced matrix, its
    # spectrum and the certificate are all read from one iteration step,
    # whether the step is taken in stability or through dynamics
    steps, step = [], dynamics._step

    def spy(entries, rows):
        steps.append(rows.shape)
        return step(entries, rows)

    monkeypatch.setattr(dynamics, "_step", spy)
    monkeypatch.setattr(stability, "_step", spy)
    a, c = pentagon_matrix(), pentagon()
    for check in (instability_certificate, positive_dot_neutrality_check,
                  determinant_nonzero_check, differential_report, certificate_matrix,
                  spectral_radius, reduced_matrix, projected_jacobian):
        steps.clear()
        check(a, c)
        assert steps == [(5, 2)], check.__name__
    steps.clear()
    assert cmd_pentagon_demo()["neutral"]
    assert steps == [(5, 2)]


def test_stacked_spectral_radii_are_the_per_trial_ones_bit_for_bit():
    # one stack per (n, d): bases, reduced matrices and radii equal the calls
    # on each trial alone, sparse and dense weights, d = 2 and d >= 3
    rng = np.random.default_rng(24)
    for n, d in [(2, 2), (3, 2), (5, 3), (8, 5), (6, 4)]:
        mats, rows = [], []
        for t in range(40):
            g = random_symmetric_connected(n, 0.5, 7000 + t)
            mats.append(sample_sdd(g, 0.1, bool(t % 2), seed=7100 + t))
            rows.append(random_configuration(n, d, seed=int(rng.integers(2 ** 32))))
        stacked = np.stack([c.rows for c in rows])
        entries = np.stack([a.entries for a in mats])
        radii = spectral_radius(entries, stacked)
        reduced = reduced_matrix(entries, stacked)
        bases = tangent_basis(stacked).blocks
        dets = np.linalg.det(reduced)
        assert radii.shape == (40,) and reduced.shape == (40, n * (d - 1), n * (d - 1))
        for t, c in enumerate(rows):
            assert radii[t] == spectral_radius(mats[t], c)
            assert np.array_equal(reduced[t], reduced_matrix(mats[t], c))
            assert np.array_equal(bases[t], tangent_basis(c).blocks)
            assert dets[t] == determinant_nonzero_check(mats[t], c).det
    # a stack of mixed n padded as pad_agents pads it: with the pad agents'
    # rows and columns zeroed, each radius is the trial's own, bit for bit
    # below LAPACK's small-matrix crossover (padded order < 75), to round-off
    # above it. Half the rows are at consensus, whose radius is 1 to
    # round-off, often just below the pad blocks' exact 1.
    for d, sizes in [(2, range(2, 9)), (3, range(2, 9)), (5, range(3, 9)), (4, range(20, 31))]:
        mats, rows = [], []
        for t in range(60):
            n = int(rng.choice(sizes))
            g = random_symmetric_connected(n, 0.5, 7200 + t)
            mats.append(sample_sdd(g, 0.1, bool(t % 2), seed=7300 + t).entries)
            xbar = rng.standard_normal(d)
            rows.append(consensus_configuration(n, xbar / np.linalg.norm(xbar)).rows if t % 2
                        else random_configuration(n, d, seed=int(rng.integers(2 ** 32))).rows)
        entries, stacked, agents = pad_agents(mats, rows)
        radii = spectral_radius(entries, stacked, agents)
        alone = np.array([spectral_radius(a, r) for a, r in zip(mats, rows)])
        if stacked.shape[1] * (d - 1) < 75:
            assert radii.tobytes() == alone.tobytes(), (d, sizes)
        else:
            assert np.allclose(radii, alone, rtol=1e-12, atol=0.0), (d, sizes)


def test_sqrt2_intermediate_bound_via_normalization():
    # the alignment cosine bound underlying the determinant result
    rng = np.random.default_rng(23)
    for k in range(100):
        n = int(rng.integers(2, 6))
        a = sample_sdd(complete_graph(n), margin=0.45, symmetric=False,
                       seed=5000 + k)
        norm = left_scale_normalize(a)
        ai = norm.entries.sum(axis=1) - 1.0
        assert np.all(ai < 1.0 / np.sqrt(2.0))
        c = random_configuration(n, int(rng.integers(2, 5)), seed=6000 + k)
        y = iterate(norm, c)
        dots = np.einsum("ij,ij->i", c.rows, y.rows)
        assert np.all(dots >= np.sqrt(1.0 - ai ** 2) - 1e-12)
