"""The pair harness (tools/bench_pairs.py): it flags runs the benchmark
judged incorrect instead of folding them into the medians unnoticed,
alternates the sides over every listed workload, and names every side by
the content of its sources, checked against the tree beside the tool."""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_pairs_alternate_over_every_listed_workload(tmp_path, monkeypatch, capsys):
    calls = []

    def run_side(checkout, workload, seconds, seed=None):
        calls.append((checkout.name, workload, seed))
        rate = {"parent": 100.0, "change": 125.0}[checkout.name] * (1 + len(calls) / 1000)
        return {**_run(rate), "setup_s": 0.2, "peak_rss_mb": 40.0}

    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    out = tmp_path / "BENCH.json"
    out.write_text('{"workloads": {"linearize": {"kept": true}}}')
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "sweep,theorem2",
            "--pairs", "3", "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    sides = [("parent", "change"), ("change", "parent"), ("parent", "change")]
    assert calls == [(side, workload, None) for order in sides
                     for workload in ("sweep", "theorem2") for side in order]
    result = json.loads(out.read_text())
    assert set(result["workloads"]) == {"linearize", "sweep", "theorem2"}
    assert result["workloads"]["linearize"] == {"kept": True}
    for workload in ("sweep", "theorem2"):
        entry = result["workloads"][workload]
        assert [p["first"] for p in entry["pairs"]] == ["parent", "change", "parent"]
        assert entry["seed"] is None and entry["summary"]["trials_per_s"]["change_wins"] == 3
    assert capsys.readouterr().out.count("pair") == 6

    # a run at another seed is stored beside the default-seed entry
    calls.clear()
    assert bench_pairs.main(argv[:5] + ["theorem2"] + argv[6:] + ["--seed", "424242"]) == 0
    assert {c[1:] for c in calls} == {("theorem2", 424242)}
    result = json.loads(out.read_text())
    assert set(result["workloads"]) == {"linearize", "sweep", "theorem2", "theorem2@424242"}
    assert result["workloads"]["theorem2@424242"]["seed"] == 424242
    assert len(result["workloads"]["theorem2"]["pairs"]) == 3


@pytest.mark.parametrize("text", ["", "sweep,", "sweep,,theorem2", "sweep,sweep"])
def test_workload_lists_are_rejected_when_empty_or_repeated(text):
    with pytest.raises(argparse.ArgumentTypeError):
        bench_pairs.workload_list(text)


def test_a_side_outside_git_is_named_by_its_sources(tmp_path, monkeypatch):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))  # git looks no higher
    side = tmp_path / "side"
    (side / "src" / "pkg").mkdir(parents=True)
    (side / "src" / "pkg" / "a.py").write_text("x = 1\n")
    revision = bench_pairs.git_revision(side)
    assert re.fullmatch(r"src-sha256:[0-9a-f]{12}", revision)
    # bytecode caches and files outside src/ leave it alone
    (side / "src" / "pkg" / "__pycache__").mkdir()
    (side / "src" / "pkg" / "__pycache__" / "a.pyc").write_bytes(b"\0")
    (side / "notes.txt").write_text("outside")
    assert bench_pairs.git_revision(side) == revision
    (side / "src" / "pkg" / "a.py").write_text("x = 2\n")
    assert bench_pairs.git_revision(side) != revision


def test_every_side_is_named_by_its_sources_and_checked_against_the_tree(tmp_path, monkeypatch,
                                                                         capsys):
    # a git checkout is named by `git describe` and by the hash of its src/,
    # which a plain copy of the same sources shares; the change side's hash is
    # checked against the src/ tree beside the tool; each side's line count is
    # that of its src/**/*.py files, other files left out
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    tree, checkout, copy, other = (tmp_path / side for side in ("tree", "checkout", "copy",
                                                                "other"))
    for side in (tree, checkout, copy, other):
        (side / "src" / "pkg").mkdir(parents=True)
        (side / "src" / "pkg" / "a.py").write_text("x = 2\n" if side == other else "x = 1\n")
    (other / "src" / "pkg" / "b.py").write_text("y = 1\nz = 2\n\n")
    (other / "src" / "pkg" / "notes.txt").write_text("not\ncounted\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(checkout)]
    for args in (["init", "-q"], ["add", "."], ["commit", "-q", "-m", "a"]):
        subprocess.run(git + args, check=True, capture_output=True)
    assert re.fullmatch(r"[0-9a-f]{7,}", bench_pairs.git_revision(checkout))
    assert bench_pairs.src_sha256(checkout) == bench_pairs.src_sha256(copy)
    monkeypatch.setattr(bench_pairs, "ROOT", tree)
    monkeypatch.setattr(bench_pairs, "run_side", lambda checkout, workload, seconds, seed=None: {
        **_run(100.0), "setup_s": 0.2, "peak_rss_mb": 40.0})
    out = tmp_path / "BENCH.json"
    for change, matches in ((copy, True), (other, False)):
        argv = ["--parent", str(checkout), "--change", str(change), "--workload", "sweep",
                "--pairs", "2", "--seconds", "1", "--out", str(out)]
        assert bench_pairs.main(argv) == 0
        entry = json.loads(out.read_text())["workloads"]["sweep"]
        assert entry["parent_revision"] == bench_pairs.git_revision(checkout)
        assert entry["parent_src_sha256"] == bench_pairs.src_sha256(tree)
        assert entry["change_src_sha256"] == bench_pairs.src_sha256(change)
        assert entry["change_matches_tree"] is matches
        for side, root in (("parent", checkout), ("change", change)):
            lines = sum(path.read_text().count("\n") for path in (root / "src").rglob("*.py"))
            assert entry[f"{side}_src_lines"] == lines == (4 if root == other else 1)
        assert ("warning" in capsys.readouterr().err) is not matches
