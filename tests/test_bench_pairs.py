"""The pair harness (tools/bench_pairs.py) flags runs the benchmark judged
incorrect instead of folding them into the medians unnoticed."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_pairs  # noqa: E402


def _run(rate, correct=True, failed=0):
    return {"correct": correct, "attempted": 50, "failed": failed, "trials_per_s": rate}


def test_incorrect_runs_are_counted_and_named():
    pairs = [{"first": "parent", "parent": _run(1900.0), "change": _run(2700.0)},
             {"first": "change", "parent": _run(1850.0),
              "change": _run(2650.0, correct=False, failed=2)}]
    assert bench_pairs.faults(pairs) == {
        "parent": {"incorrect_runs": 0, "failed_trials": 0},
        "change": {"incorrect_runs": 1, "failed_trials": 2}}
    assert bench_pairs.pair_line("sweep", 0, pairs[0]) == (
        "sweep pair 0: parent 1900, change 2700 trials/s")
    assert bench_pairs.pair_line("sweep", 1, pairs[1]) == (
        "sweep pair 1: parent 1850, change 2650 (INCORRECT, 2 failed trials) trials/s")
