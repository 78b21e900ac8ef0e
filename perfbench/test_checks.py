"""Tests of the benchmark's own checks: each passes on a genuine output and
fails on a deliberately wrong one.

    python3 -m pytest -q -p no:cacheprovider perfbench/test_checks.py
"""

import copy
import dataclasses
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import spherecon  # noqa: E402
import spherecon.cli  # noqa: E402,F401
from spherecon.experiments import ExperimentConfig, cmd_theorem2_probe  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _cli_outputs(workload):
    _, _, out = workload.run_round(0, "test")
    return checks.read_outputs(out)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    w = workloads.Sweep(spherecon, 7, str(tmp_path_factory.mktemp("sweep")))
    w.trials = 8
    w.setup()
    records, summary = _cli_outputs(w)
    return w, records, summary


def test_sweep_checks_pass_on_genuine_output(sweep):
    w, records, summary = sweep
    assert checks.check_sweep(records, summary, w.trials) == []
    rng = np.random.default_rng(0)
    assert w.check_reference(0, records, summary, rng) == []


@pytest.mark.parametrize("field,value", [("class", "higher-rank"),
                                         ("spec_radius", "1.001")])
def test_sweep_check_fails_on_wrong_record(sweep, field, value):
    w, records, summary = sweep
    bad = copy.deepcopy(records)
    bad[3][field] = value
    assert checks.check_sweep(bad, summary, w.trials)


def test_sweep_check_fails_on_decreasing_potential(sweep):
    w, records, summary = sweep
    assert checks.check_sweep(records, {**summary, "min_potential_delta": -1e-6}, w.trials)


def test_sweep_reference_fails_on_wrong_rank(sweep):
    w, records, summary = sweep
    rec = dict(records[0], **{"class": "higher-rank", "rank": "2"})
    n, d = int(rec["n"]), int(rec["d"])
    seed = w.round_seed(0)
    g = spherecon.graph.random_symmetric_connected(n, w.edge_prob, checks.derive_seed(seed, 0, 1))
    x0 = spherecon.state.random_configuration(n, d, checks.derive_seed(seed, 0, 3)).rows
    inputs = [(spherecon.weights.sample_sdd(g, w.margin, sym,
                                            checks.derive_seed(seed, 0, 2)).entries, x0)
              for sym in (True, False)]
    assert checks.check_sweep_reference(records[0], inputs) == []
    assert checks.check_sweep_reference(rec, inputs)
    assert checks.check_sweep_reference(dict(records[0], matrix_hash="0" * 12), inputs)


@pytest.fixture(scope="module")
def theorem2(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("theorem2"))
    cfg = ExperimentConfig(seed=3, trials=12, n=5, d=2, symmetric=False,
                           max_iter=3000, out=out)
    cmd_theorem2_probe(cfg)
    return checks.read_outputs(out)


def test_theorem2_check_passes_on_genuine_output(theorem2):
    records, summary = theorem2
    assert {r["class"] for r in records} - {"nonconverged"}  # some converged
    assert checks.check_theorem2(records, summary, 12) == []


def test_theorem2_check_fails_on_rank_two_limit(theorem2):
    records, summary = theorem2
    bad = copy.deepcopy(records)
    k = next(i for i, r in enumerate(bad) if r["class"] != "nonconverged")
    bad[k].update({"class": "higher-rank", "rank": "2"})
    assert checks.check_theorem2(bad, summary, 12)
    assert checks.check_theorem2(records, {**summary, "rank_ge2_count": 1}, 12)


def test_theorem2_check_fails_on_unconverged_limit_counted(theorem2):
    records, summary = theorem2
    bad = copy.deepcopy(records)
    k = next(i for i, r in enumerate(bad) if r["class"] != "nonconverged")
    bad[k]["residual_MA"] = "1e-6"
    assert checks.check_theorem2(bad, summary, 12)


@pytest.fixture(scope="module")
def linearize():
    w = workloads.Linearize(spherecon, 5, None)
    w.sizes = [(16, 2), (16, 3)]
    w.setup()
    w.run_round(0, "test")
    return w, w.results[(0, "test")]


def test_linearize_checks_pass_on_genuine_output(linearize):
    w, results = linearize
    for point, result in zip(w.points, results):
        assert checks.check_linearize_point(point, result) == [], point["name"]


def _point(w, results, name):
    k = next(i for i, p in enumerate(w.points) if p["name"] == name)
    return w.points[k], dict(results[k])


def test_linearize_check_fails_on_perturbed_spectrum(linearize):
    w, results = linearize
    point, result = _point(w, results, "ring n=16 d=2")
    rep = result["report"]
    eig = rep.eigenvalues.copy()
    eig[np.argmin(np.abs(eig))] += 1e-6
    result["report"] = dataclasses.replace(rep, eigenvalues=eig)
    assert any("circulant DFT" in f for f in checks.check_linearize_point(point, result))


def test_linearize_check_fails_on_wrong_jacobian(linearize):
    w, results = linearize
    point, result = _point(w, results, "complete n=16 d=3")
    rep = result["report"]
    result["report"] = dataclasses.replace(rep, jacobian=rep.jacobian * (1 + 1e-4))
    assert any("finite differences" in f for f in checks.check_linearize_point(point, result))


def test_linearize_check_fails_on_missing_instability(linearize):
    w, results = linearize
    point, result = _point(w, results, "ring n=16 d=3")
    result["certificate"] = dataclasses.replace(result["certificate"], label="inconclusive")
    assert checks.check_linearize_point(point, result)
