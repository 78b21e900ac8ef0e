"""Experiment harness: determinism, record schema, CLI smoke tests."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from spherecon import dynamics
from spherecon.dynamics import AT_MAX_ITER, RELATIVE_EQUILIBRIUM, _step, run_batch
from spherecon.experiments import (RECORD_FIELDS, ExperimentConfig, _plan, _run_trials,
                                   _theorem2_trials, cmd_consensus_sweep, cmd_jg_rank,
                                   cmd_pentagon_demo, cmd_rank_table,
                                   cmd_stability_audit, cmd_theorem2_probe,
                                   collect_descent_fixed_points, derive_seed,
                                   pentagon_configuration,
                                   pentagon_weight_matrix)
from spherecon.tolerances import RE_FIT_TOL, RE_STEP_FLOOR
from spherecon.weights import descent_matrix


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
    assert derive_seed(42, 1, 2) != derive_seed(42, 1, 3)
    assert derive_seed(42, 1) != derive_seed(43, 1)


def test_config_requires_seed_and_positive_trials():
    with pytest.raises(TypeError):
        ExperimentConfig()
    with pytest.raises(ValueError):
        ExperimentConfig(seed=1, trials=0)


def test_config_from_json_with_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 7, "trials": 3, "n": 4, "d": 2}))
    cfg = ExperimentConfig.from_json(str(path), trials=5)
    assert cfg.seed == 7 and cfg.trials == 5 and cfg.n == 4


def test_config_from_json_names_unknown_keys(tmp_path):
    # the tolerances are constants of the package, not config fields
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 7, "fp_tol": 1e-10, "rank_tol": 1e-6}))
    with pytest.raises(ValueError, match="unknown config keys: fp_tol, rank_tol"):
        ExperimentConfig.from_json(str(path))
    from spherecon.cli import main
    with pytest.raises(SystemExit, match="unknown config keys: fp_tol, rank_tol"):
        main(["sweep", "--config", str(path)])


@pytest.mark.parametrize("field, value", [
    ("edge_prob", 1.7), ("edge_prob", -0.5),
    ("d_range", (5, 3)), ("d_range", (1, 1)), ("n_range", (6, 4)), ("n_range", (1, 5)),
    ("n", 1), ("d", 1), ("seed", -3),
    ("margin", float("inf")), ("margin", float("nan")),
    ("slack", float("inf")), ("slack", float("nan")), ("max_iter", -5), ("max_iter", 0),
    ("graph", "rnadom"),
])
def test_config_rejects_values_no_trial_can_use(field, value, tmp_path):
    # a probability outside [0, 1], an empty range, a dimension below 2, a
    # negative master seed, a margin or slack that is not finite, no
    # iteration at all, or a graph model that does not exist
    with pytest.raises(ValueError, match=f"^{field} must"):
        ExperimentConfig(**{"seed": 1, field: value})
    from spherecon.cli import main
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 1, field: value}))
    with pytest.raises(SystemExit, match=f"^{field} must"):
        main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
    assert not (tmp_path / "o").exists()


def _scalar_graph(cfg, n, symmetric_graph, seed):
    """Trial graph of cfg's model from the one-graph samplers: the reference
    the planner's stacked draws must equal."""
    from spherecon.graph import (complete_graph, random_connected_er,
                                 random_strongly_connected, random_symmetric_connected,
                                 ring_graph)
    if cfg.graph == "complete":
        return complete_graph(n)
    if cfg.graph == "ring":
        return ring_graph(n)
    if cfg.graph == "er":
        if not symmetric_graph:
            raise ValueError("the er graph model is symmetric-only")
        return random_connected_er(n, cfg.edge_prob, seed)
    if symmetric_graph:
        return random_symmetric_connected(n, cfg.edge_prob, seed)
    return random_strongly_connected(n, cfg.edge_prob, seed)


@pytest.mark.parametrize("model, symmetric_graph, streams", [
    ("random", True, (1, 2, 3)), ("random", False, (1, 2, 3)), ("complete", True, (1, 2, 3)),
    ("complete", False, (1, 2, 3)), ("ring", True, (11, 12, 13)), ("er", True, (1, 2, 3)),
])
def test_planner_draws_equal_the_one_trial_samplers(model, symmetric_graph, streams):
    # trials of mixed n, d and weight symmetry, planned in one batch, draw
    # bit for bit what the public samplers draw from the derived int seeds
    from spherecon.experiments import _plan, _Trial
    from spherecon.state import random_configuration
    from spherecon.weights import sample_sdd
    cfg = ExperimentConfig(seed=20260826, graph=model, edge_prob=0.57)
    rng = np.random.default_rng(0)
    trials = [_Trial(t, int(rng.integers(3, 9)), int(rng.integers(2, 6)),
                     symmetric_graph and bool(rng.integers(0, 2)), model,
                     symmetric_graph=symmetric_graph) for t in range(0, 120, 3)]
    assert {tr.symmetric for tr in trials} == ({True, False} if symmetric_graph else {False})
    for trial in _plan(cfg, trials, streams):
        assert trial.error is None and trial.seed == derive_seed(cfg.seed, trial.t)
        seeds = [derive_seed(cfg.seed, trial.t, s) for s in streams]
        g = _scalar_graph(cfg, trial.n, symmetric_graph, seeds[0])
        a = sample_sdd(g, cfg.margin, trial.symmetric, seeds[1])
        start = random_configuration(trial.n, trial.d, seeds[2]).rows
        assert np.array_equal(trial.graph.adjacency, g.adjacency)
        assert np.array_equal(trial.weights.entries, a.entries)
        assert np.array_equal(trial.start, start)


def test_planner_records_each_failed_draw_on_its_trial():
    # a model no trial of a shape can draw fails those trials alone, with
    # the one-trial sampler's message, and the other trials are drawn
    from spherecon.experiments import _plan, _Trial
    trials = _plan(ExperimentConfig(seed=3, graph="ring"), [
        _Trial(0, 2, 3, True, "ring"), _Trial(1, 4, 3, True, "ring"),
        _Trial(2, 2, 2, False, "er", symmetric_graph=False), _Trial(3, 2, 3, True, "ring")])
    assert [str(tr.error) if tr.error else None for tr in trials] == [
        "ring requires n >= 3", None, "the er graph model is symmetric-only",
        "ring requires n >= 3"]
    assert all(tr.weights is None and tr.start is None for tr in trials if tr.error)
    assert trials[1].start.shape == (4, 3)
    with pytest.raises(ValueError, match="^ring requires n >= 3$"):
        _scalar_graph(ExperimentConfig(seed=3, graph="ring"), 2, True, 0)
    # in a command: theorem2's d = 2 trials draw er graphs, d >= 3 complete ones
    records, summary = cmd_theorem2_probe(ExperimentConfig(
        seed=3, trials=8, n=3, graph="er", symmetric=False, max_iter=200))
    failed = [r.trial for r in records if r.d == 2]
    assert 0 < len(failed) < 8
    assert summary["errors"] == [{"trial": t, "error": "the er graph model is symmetric-only"}
                                 for t in failed]
    assert all((r.klass == "error") == (r.d == 2) and (r.graph_hash == "") == (r.d == 2)
               for r in records)


def test_sweep_small_consensus(tmp_path):
    cfg = ExperimentConfig(seed=11, trials=20, out=str(tmp_path / "o"))
    records, summary = cmd_consensus_sweep(cfg)
    assert summary["consensus_fraction"] == 1.0
    assert summary["errors"] == []
    assert len(records) == 20
    with open(tmp_path / "o" / "records.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == RECORD_FIELDS
    assert len(rows) == 21
    assert json.loads((tmp_path / "o" / "summary.json").read_text())[
        "consensus_fraction"] == 1.0
    assert sum(summary["iteration_histogram"].values()) == 20
    # one lockstep call per d: every n, symmetric or not, shares it
    assert summary["lockstep_groups"] == len({r.d for r in records})


def test_sweep_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        cmd_consensus_sweep(ExperimentConfig(seed=99, trials=15, out=str(out)))
    assert (out1 / "records.csv").read_text() == (out2 / "records.csv").read_text()


def test_sweep_monotone_potential_summary():
    cfg = ExperimentConfig(seed=5, trials=30, symmetric=True)
    _, summary = cmd_consensus_sweep(cfg)
    assert summary["min_potential_delta"] >= -1e-10


def test_rank_table_requires_n_d_and_symmetric():
    with pytest.raises(ValueError):
        cmd_rank_table(ExperimentConfig(seed=1, trials=2))
    with pytest.raises(ValueError):
        cmd_rank_table(ExperimentConfig(seed=1, trials=2, n=3, d=2,
                                        symmetric=False))


def test_rank_table_frequencies_partition():
    cfg = ExperimentConfig(seed=3, trials=50, n=3, d=2, symmetric=True,
                           graph="er", edge_prob=0.57)
    records, summary = cmd_rank_table(cfg)
    freqs = summary["rank_frequencies"]
    assert sum(freqs.values()) == pytest.approx(1.0)
    assert set(freqs) <= {"1", "2"}
    assert summary["errors"] == []


def test_rank_table_counts_converged_limits_only():
    # three of these ten trials need more than 150 descent steps
    cfg = ExperimentConfig(seed=6, trials=10, n=3, d=2, graph="er",
                           edge_prob=0.57, symmetric=True, max_iter=150)
    records, summary = cmd_rank_table(cfg)
    stalled = [r for r in records if r.klass == "nonconverged"]
    assert summary["nonconverged"] == len(stalled) > 0
    assert all(r.iters == cfg.max_iter for r in stalled)
    assert summary["lockstep_groups"] == 1
    assert list(summary["iteration_histogram"]) == ["0-9", "10-99", "100-149", "150"]
    assert summary["iteration_histogram"]["150"] == len(stalled)
    assert sum(summary["rank_counts"].values()) == cfg.trials - len(stalled)


def test_rank_table_limits_at_three_agents_follow_the_triangle_rule():
    # on three agents an er graph is a path or a triangle. A path's potential
    # minimum is rank 1; a triangle's, with off-diagonal weights a, b and c, is
    # rank 2 exactly when 1/a, 1/b and 1/c satisfy the strict triangle
    # inequalities. Every converged descent limit of the command is checked
    # against its trial's draws, tied to its record by the matrix hash
    from spherecon.experiments import _Trial, matrix_hash
    cfg = ExperimentConfig(seed=12345, trials=4000, n=3, d=2, graph="er", edge_prob=0.57,
                           symmetric=True)
    records, _ = cmd_rank_table(cfg)
    trials = _plan(cfg, [_Trial(t, 3, 2, True, "er") for t in range(cfg.trials)])
    paths, triangles = [], []  # the converged limits' ranks, with the rule on a triangle
    for trial, r in zip(trials, records):
        assert r.matrix_hash == matrix_hash(trial.weights.entries)
        if r.klass in ("nonconverged", "error"):
            continue
        a = trial.weights.entries
        if np.count_nonzero(trial.graph.adjacency) == 4:
            paths.append(r.rank)
        else:
            inverse = 1.0 / np.array([a[0, 1], a[0, 2], a[1, 2]])
            triangles.append((r.rank, bool((2.0 * inverse < inverse.sum()).all())))
    assert len(paths) > 2000 and len(triangles) > 1000
    assert set(paths) == {1}
    assert {rule for _, rule in triangles} == {False, True}
    assert all(rank == (2 if rule else 1) for rank, rule in triangles)


def test_sweep_reports_twisted_circle_limit_by_d():
    # on the circle a bare 6-cycle has a stable twisted fixed point; trial 23
    # of this seed converges to it, outside the paper's d >= 3 consensus result
    from spherecon.experiments import graph_hashes
    from spherecon.graph import random_symmetric_connected
    records, summary = cmd_consensus_sweep(ExperimentConfig(seed=230000714, trials=24))
    rec = records[23]
    assert (rec.n, rec.d, rec.klass, rec.rank) == (6, 2, "higher-rank", 2)
    assert rec.spec_radius == pytest.approx(1.0, abs=1e-9)
    cycle = random_symmetric_connected(6, 0.5, derive_seed(230000714, 23, 1))
    assert cycle.adjacency.sum() == 12 and graph_hashes(cycle.adjacency[None])[0] == rec.graph_hash
    assert summary["nonconsensus_trials"] == 1
    assert summary["nonconsensus_by_d"]["2"] == 1
    assert sum(summary["nonconsensus_by_d"].values()) == 1


def test_sweep_records_a_rotating_trial_as_nonconverged():
    # on the directed-weight ring, trial 425 of this seed locks into a rigid
    # rotation and stops at a relative equilibrium: no limit, so no spectral
    # radius, and neither a consensus nor a non-consensus trial
    cfg = ExperimentConfig(seed=7, trials=426, d=2, graph="ring", symmetric=False)
    records, summary = cmd_consensus_sweep(cfg)
    rec = records[425]
    assert (rec.n, rec.klass, rec.iters) == (7, "nonconverged", 1023)
    assert np.isnan(rec.spec_radius)
    assert all(np.isfinite(r.spec_radius) for r in records[:425])
    assert summary["nonconverged"] == summary["status_counts"]["relative-equilibrium"] == 1
    assert summary["nonconsensus_trials"] == 0 and summary["nonconsensus_by_d"] == {"2": 0}
    assert summary["consensus_fraction"] == 425 / 426


def test_sweep_counts_d2_bare_cycle_trials():
    # trial 23 of this seed is a d = 2 trial on a bare 6-cycle; the count is
    # every d = 2 trial whose graph gives each node exactly two neighbours
    cfg = ExperimentConfig(seed=230000714, trials=24)
    records, summary = cmd_consensus_sweep(cfg)
    bare = [r.trial for r in records if r.d == 2 and set(
        _scalar_graph(cfg, r.n, True, derive_seed(cfg.seed, r.trial, 1))
        .adjacency.sum(axis=1)) == {2}]
    assert 23 in bare
    assert summary["d2_bare_cycle_trials"] == len(bare)


def test_theorem2_probe_zero_counterexamples():
    cfg = ExperimentConfig(seed=8, trials=40, symmetric=False)
    _, summary = cmd_theorem2_probe(cfg)
    assert summary["rank_ge2_count"] == 0
    assert summary["counterexamples"] == []
    # a trial that does not converge stops at a relative equilibrium, as
    # quasi-periodic or at max_iter
    counts = summary["status_counts"]
    assert counts["relative-equilibrium"] > 0 and counts["zero-norm"] == 0
    assert (counts["relative-equilibrium"] + counts["quasi-periodic"] + counts["max-iter"]
            == summary["nonconverged"])
    assert summary["iteration_histogram"]["100000"] == counts["max-iter"]
    assert sum(counts.values()) == cfg.trials
    assert len(summary["relative_equilibria"]) == counts["relative-equilibrium"]
    assert len(summary["quasi_periodic"]) == counts["quasi-periodic"]


def test_near_rank_one_collapses_do_not_stop_as_rotations():
    # four trials of criterion 6's plan whose Gram matrix barely moved for
    # thousands of steps while they collapsed onto rank one; a Gram test took
    # them for rigid rotations. They converge, antipodal, at these counts.
    cfg = ExperimentConfig(seed=20260826, trials=10_000, symmetric=False)
    expected = {1863: (2, 14374), 1913: (2, 18828), 5581: (2, 28620), 7797: (3, 28363)}
    trials = _plan(cfg, [tr for tr in _theorem2_trials(cfg) if tr.t in expected])
    records, _, run_fields = _run_trials(cfg, trials, descent=True)
    assert {r.trial: (r.d, r.iters) for r in records} == expected
    assert {(r.klass, r.rank) for r in records} == {("antipodal", 1)}
    assert run_fields["status_counts"]["fixed-point"] == 4


def test_stopped_trials_keep_rotating():
    # every trial that a 40-trial theorem2 run at (n, d) = (5, 2) stops at a
    # relative equilibrium, continued for 10^4 steps of the iteration map
    # (all of them at once): no step falls to the stop's step floor, and the
    # Gram matrix of its agents stays within RE_FIT_TOL of where it stopped
    cfg = ExperimentConfig(seed=20260826, trials=40, n=5, d=2, symmetric=False)
    trials = _plan(cfg, _theorem2_trials(cfg))
    _run_trials(cfg, trials, descent=True)
    stopped = [tr for tr in trials if tr.status == RELATIVE_EQUILIBRIUM]
    assert len(stopped) >= 10
    mats = np.stack([descent_matrix(tr.weights, cfg.slack).entries for tr in stopped])
    rows = np.stack([tr.final.rows for tr in stopped])
    gram = rows @ np.swapaxes(rows, -1, -2)
    for _ in range(10_000):
        image, _ = _step(mats, rows)
        assert np.linalg.norm(image - rows, axis=(1, 2)).min() > RE_STEP_FLOOR
        rows = image
        assert np.abs(rows @ np.swapaxes(rows, -1, -2) - gram).max() <= RE_FIT_TOL


def test_quasi_periodic_trials_never_converge(monkeypatch):
    # every trial that a 40-trial theorem2 run at (n, d) = (5, 2) stops as
    # quasi-periodic, listed in the summary with its turn, run again from its
    # start to max_iter with the stop switched off: none reaches a fixed
    # point or passes the RE test
    cfg = ExperimentConfig(seed=20260826, trials=40, n=5, d=2, symmetric=False)
    records, summary = cmd_theorem2_probe(cfg)
    listed = summary["quasi_periodic"]
    assert len(listed) == summary["status_counts"]["quasi-periodic"] >= 5
    assert all(set(entry) == {"trial", "lag", "return_distance", "exponents"} for entry in listed)
    assert {records[entry["trial"]].klass for entry in listed} == {"nonconverged"}
    trials = _plan(cfg, _theorem2_trials(cfg))
    stopped = [trials[entry["trial"]] for entry in listed]
    monkeypatch.setattr(dynamics, "TURN_TESTS", 0)
    out = run_batch(np.stack([descent_matrix(tr.weights, cfg.slack).entries for tr in stopped]),
                    np.stack([tr.start for tr in stopped]), max_iter=cfg.max_iter)
    assert out.status.tolist() == [AT_MAX_ITER] * len(stopped)


def test_theorem2_perturbation_of_symmetric_matrix():
    # a symmetric matrix with a rank-2 limit loses that fixed point under
    # small zero-structure-preserving asymmetric noise: the re-run either
    # converges to a rank-1 limit or stalls near the destroyed fixed point
    # without ever reaching one (it never converges to rank >= 2)
    from spherecon.dynamics import find_nonconsensus_fixed_point
    from spherecon.graph import complete_graph
    from spherecon.state import classify_configuration, random_configuration
    from spherecon.weights import WeightMatrix, sample_sdd
    rng = np.random.default_rng(123)
    checked = 0
    for seed in range(60):
        a = sample_sdd(complete_graph(3), margin=0.1, symmetric=True, seed=seed)
        c0 = random_configuration(3, 2, seed=9000 + seed)
        res = find_nonconsensus_fixed_point(a, c0)
        if res.classification.rank < 2:
            continue
        noise = rng.uniform(0.0, 1e-3, size=(3, 3))
        np.fill_diagonal(noise, 0.0)
        perturbed = WeightMatrix(a.entries + noise, a.graph)
        res2 = find_nonconsensus_fixed_point(perturbed, c0, max_iter=50_000)
        assert not (res2.converged and res2.classification.rank >= 2)
        checked += 1
        if checked >= 3:
            return
    pytest.fail("no rank-2 limit found to perturb")


def test_pentagon_demo(tmp_path):
    report = cmd_pentagon_demo(out=str(tmp_path))
    assert report["residual"] < 1e-12
    assert report["neutral"] is True
    assert report["rank"] == 2
    expected = float(np.cos(2.0 * np.pi / 5.0))
    assert np.allclose(report["neighbor_dots"], expected, atol=1e-12)
    assert (tmp_path / "summary.json").exists()


def test_pentagon_objects():
    a = pentagon_weight_matrix()
    assert np.allclose(np.diag(a.entries), 3.0)
    assert a.entries.sum() == pytest.approx(25.0)
    c = pentagon_configuration()
    assert c.n == 5 and c.d == 2


def test_stability_audit_small():
    cfg = ExperimentConfig(seed=21, trials=100, n=4, d=3, symmetric=True)
    summary = cmd_stability_audit(cfg, count=5, det_trials=20)
    assert summary["fixed_points"] == 5
    assert summary["unstable_certified"] == 5
    assert summary["trace_matches"] == 5
    assert summary["min_abs_det_sqrt2"] > 0


def test_audit_counts_only_converged_escapes(monkeypatch):
    # the escape run cut at 50 steps: every trial's last rows then look like consensus,
    # but only the trials that reached a fixed point escaped to it
    from spherecon import dynamics
    from spherecon.state import Configuration, classify_configuration
    real, escape_runs = dynamics.run_batch, []

    def short_escapes(entries, rows, *args, potential=False, **kwargs):
        if not potential:  # the descent search
            return real(entries, rows, *args, **kwargs)
        escape_runs.append(real(entries, rows, *args, potential=True,
                                **{**kwargs, "max_iter": 50}))
        return escape_runs[-1]

    monkeypatch.setattr(dynamics, "run_batch", short_escapes)
    cfg = ExperimentConfig(seed=1, n=4, d=3, symmetric=True)
    summary = cmd_stability_audit(cfg, count=20, det_trials=20)
    (out,) = escape_runs
    assert all(classify_configuration(Configuration._unchecked(rows)).is_consensus
               for rows in out.rows)
    assert summary["escapes_to_consensus"] == int((out.status == "fixed-point").sum()) == 11


def test_every_trajectory_runs_through_the_trial_pipeline(monkeypatch):
    # the five trajectory commands, the audit's escape run included, reach the
    # lockstep kernel only from the pipeline's one call site
    real, callers = dynamics.run_batch, set()

    def spy(*args, **kwargs):
        callers.add(sys._getframe(1).f_code.co_name)
        return real(*args, **kwargs)

    monkeypatch.setattr(dynamics, "run_batch", spy)
    cmd_consensus_sweep(ExperimentConfig(seed=1, trials=20))
    cmd_rank_table(ExperimentConfig(seed=1, trials=20, n=3, d=2))
    cmd_theorem2_probe(ExperimentConfig(seed=1, trials=20, max_iter=3000))
    cmd_stability_audit(ExperimentConfig(seed=1, n=4, d=3), count=3, det_trials=5)
    cmd_jg_rank(ExperimentConfig(seed=1, n=4, d=3), count=3)
    assert callers == {"_run_group"}


@pytest.mark.parametrize("command", [cmd_stability_audit, cmd_jg_rank])
def test_descent_commands_reject_non_symmetric_weights(command):
    cfg = ExperimentConfig(seed=1, n=4, d=3, symmetric=False)
    with pytest.raises(ValueError, match="runs symmetric weight matrices"):
        command(cfg, count=2)


def test_jg_rank_small():
    cfg = ExperimentConfig(seed=31, trials=100, n=4, d=3, symmetric=True)
    summary = cmd_jg_rank(cfg, count=5)
    assert summary["fixed_points"] == 5
    assert summary["nonsym_full_rank"] == 5
    assert summary["sym_deficiency_satisfied"] == summary["rank_ge2_points"]
    assert summary["max_null_residual"] < 1e-8


@pytest.mark.parametrize("command", ["audit", "jg-rank"])
def test_a_count_below_one_is_rejected(command, tmp_path):
    cfg = ExperimentConfig(seed=1, n=4, d=3, symmetric=True)
    with pytest.raises(ValueError, match="^count must be >= 1, got 0$"):
        collect_descent_fixed_points(cfg, count=0)
    from spherecon.cli import main
    with pytest.raises(SystemExit, match="^count must be >= 1, got -3$"):
        main([command, "--seed", "1", "--n", "4", "--d", "3", "--count", "-3",
              "--out", str(tmp_path / "o")])
    assert not (tmp_path / "o").exists()


def test_descent_search_reports_shortfall():
    # two descent steps never converge, so the whole trial budget is spent
    cfg = ExperimentConfig(seed=31, trials=100, n=4, d=3, symmetric=True,
                           max_iter=1)
    with pytest.warns(RuntimeWarning, match="found 0 of 2"):
        points = collect_descent_fixed_points(cfg, count=2)
    assert len(points) == 0
    assert points.counts == {"requested": 2, "trials_run": 1000, "zero_norm_trials": 0,
                             "status_counts": {"fixed-point": 0, "relative-equilibrium": 0,
                                               "quasi-periodic": 0, "max-iter": 1000,
                                               "zero-norm": 0}}
    with pytest.warns(RuntimeWarning):
        summary = cmd_jg_rank(cfg, count=2)
    assert summary["fixed_points"] == 0
    assert (summary["requested"], summary["trials_run"]) == (2, 1000)


def test_descent_search_matches_per_trial_search():
    # the chunked lockstep search keeps the hits a trial-by-trial search finds
    from spherecon.dynamics import find_nonconsensus_fixed_point
    from spherecon.state import classify_configuration, random_configuration
    from spherecon.tolerances import A_RESIDUAL_TOL, LIMIT_RANK_TOL
    from spherecon.weights import sample_sdd
    for graph, rank in (("random", 2), ("complete", 1)):
        cfg = ExperimentConfig(seed=1, n=4, d=3, symmetric=True, graph=graph)
        points = collect_descent_fixed_points(cfg, count=6, require_rank_ge=rank)
        hits = []
        for t in range(points.counts["trials_run"]):
            a = sample_sdd(_scalar_graph(cfg, 4, True, derive_seed(1, t, 1)), cfg.margin,
                           True, derive_seed(1, t, 2))
            res = find_nonconsensus_fixed_point(
                a, random_configuration(4, 3, derive_seed(1, t, 3)), slack=cfg.slack,
                max_iter=cfg.max_iter)
            cls = classify_configuration(res.final, LIMIT_RANK_TOL)
            if (res.converged and not cls.is_consensus and cls.rank >= rank
                    and res.residual_weight <= A_RESIDUAL_TOL):
                hits.append((a, res.final, t))
        assert [t for _, _, t in points] == [t for _, _, t in hits]
        assert hits[-1][2] == points.counts["trials_run"] - 1
        for (a, c, _), (ref_a, ref_c, _) in zip(points, hits):
            assert np.array_equal(a.entries, ref_a.entries)
            assert np.array_equal(c.rows, ref_c.rows)


def test_zero_norm_trial_keeps_its_hashes_and_names_the_agent():
    from spherecon.experiments import _run_trials, _Trial, graph_hashes, matrix_hash
    from spherecon.graph import complete_graph
    from spherecon.weights import WeightMatrix, sample_sdd
    g = complete_graph(2)
    ones = WeightMatrix(np.ones((2, 2)), g)
    healthy = sample_sdd(g, 0.1, True, seed=3)
    trials = [_Trial(t, 2, 2, True, "complete", graph=g, weights=a, start=rows)
              for t, (a, rows) in enumerate([
        (healthy, np.array([[1.0, 0.0], [0.0, 1.0]])),
        (ones, np.array([[1.0, 0.0], [-1.0, 0.0]]))])]
    records, errors, _ = _run_trials(ExperimentConfig(seed=1), trials, descent=False)
    assert records[0].klass == "consensus" and trials[0].min_potential_step is not None
    assert errors == [{"trial": 1, "error": "agent 1: combined state has near-zero "
                                            "norm, projection undefined"}]
    assert records[1].klass == "error" and trials[1].min_potential_step is None
    assert (records[1].graph_hash, records[1].matrix_hash) == (
        graph_hashes(g.adjacency[None])[0], matrix_hash(ones.entries))


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "spherecon.cli", *args],
                          capture_output=True, text=True)


def test_cli_pentagon():
    proc = _run_cli("pentagon")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["neutral"] is True


def test_cli_sweep_writes_outputs(tmp_path):
    out = tmp_path / "run"
    proc = _run_cli("sweep", "--seed", "4", "--trials", "10",
                    "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "records.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["consensus_fraction"] == 1.0


def test_cli_rank_table_with_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "seed": 6, "trials": 10, "n": 3, "d": 2, "graph": "er",
        "edge_prob": 0.57, "symmetric": True}))
    proc = _run_cli("rank-table", "--config", str(cfg_path),
                    "--out", str(tmp_path / "rt"))
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "rt" / "summary.json").read_text())
    assert sum(summary["rank_counts"].values()) == 10


def test_cli_requires_seed_with_or_without_config(tmp_path):
    from spherecon.cli import main
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"trials": 3}))
    for argv in (["sweep", "--trials", "3"], ["sweep", "--config", str(cfg_path)]):
        with pytest.raises(SystemExit, match="--seed is required"):
            main(argv)


@pytest.mark.parametrize("command, flag", [
    ("sweep", "--slack"),
    ("rank-table", "--symmetric"),
    ("theorem2", "--symmetric"),
    ("audit", "--symmetric"),
    ("audit", "--trials"),
    ("jg-rank", "--symmetric"),
    ("jg-rank", "--trials"),
    ("jg-rank", "--graph"),
    ("jg-rank", "--edge-prob"),
])
def test_cli_rejects_flags_a_command_does_not_read(command, flag, capsys):
    from spherecon.cli import main
    value = {"--symmetric": [], "--graph": ["ring"]}.get(flag, ["3"])
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "1", "--n", "4", "--d", "3", flag, *value])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command, symmetric", [
    ("theorem2", True), ("rank-table", False), ("audit", False), ("jg-rank", False),
])
def test_cli_names_a_config_symmetry_the_command_cannot_run(command, symmetric, tmp_path):
    from spherecon.cli import main
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 1, "n": 4, "d": 3, "symmetric": symmetric}))
    extra = ["--count", "1"] if command in ("audit", "jg-rank") else ["--trials", "2"]
    with pytest.raises(SystemExit, match=f'config sets "symmetric": {json.dumps(symmetric)}'):
        main([command, "--config", str(path), *extra, "--out", str(tmp_path / "o")])
    assert not (tmp_path / "o").exists()


def test_cli_import_leaves_scipy_out():
    code = "import sys, spherecon.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_theorem2_and_flag_overrides(tmp_path):
    proc = _run_cli("theorem2", "--seed", "2", "--trials", "8", "--n", "3",
                    "--d", "2", "--out", str(tmp_path / "t2"))
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "t2" / "summary.json").read_text())
    assert summary["rank_ge2_count"] == 0
    # stdout leaves out the per-trial lists that summary.json keeps
    printed = json.loads(proc.stdout)
    for key in ("relative_equilibria", "quasi_periodic"):
        assert key in summary and key not in printed
    assert printed == {k: v for k, v in summary.items()
                       if k not in ("counterexamples", "errors", "relative_equilibria",
                                    "quasi_periodic")}


def test_record_csv_round_trip(tmp_path):
    cfg = ExperimentConfig(seed=55, trials=5, out=str(tmp_path / "rt"))
    records, _ = cmd_consensus_sweep(cfg)
    with open(tmp_path / "rt" / "records.csv") as fh:
        rows = list(csv.DictReader(fh))
    for rec, row in zip(records, rows):
        assert int(row["trial"]) == rec.trial
        assert int(row["seed"]) == rec.seed
        assert row["class"] == rec.klass
        assert float(row["residual_A"]) == pytest.approx(rec.residual_A)
