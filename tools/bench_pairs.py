"""Alternating before/after pairs of the benchmark, written to a BENCH_*.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload sweep,theorem2 \
        --pairs 10 --out BENCH_8.json [--seconds 30] [--seed N]

DIR is a checkout of each side; each side runs its own `perfbench/run.py`
in its own directory, untraced, at the workload's own seed or at --seed.
--workload names one workload or several, comma-separated. Pair k runs
each of them in turn on both sides, the parent first when k is even and
the change first when k is odd. Every run's end-to-end metrics are kept,
and per metric the file gives each side's median and quartiles, the number
of pairs the change won, and whether the change's median is worse than the
parent's by more than the metric's bound. Directions and bounds are read
from the BENCHMARK.json next to this tool. A run whose outputs the
benchmark judged incorrect (exit code 1) is kept in the medians but
flagged: its pair line names the side, and the workload counts each side's
incorrect runs and failed trials. A workload's result is stored under its
name, or under "<workload>@<seed>" with --seed, and results already in
--out under other keys are kept, so one file can hold every workload of a
change and its runs at other seeds.

Each side is named by its `git describe` and, always, by a content hash of
its src/ tree, which a copy of a commit (`git archive`) shares with the
commit's checkout; beside the hash is the line count of its src/**/*.py, so
that the file records a change's size as it records its speed.
change_matches_tree says whether the change side's hash is that of the src/
tree beside this tool when the file was written, the tree a BENCH file is
committed with; the tool warns when it is not.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"


def run_side(checkout: Path, workload: str, seconds: float, seed=None) -> dict:
    seed_args = [] if seed is None else ["--seed", str(seed)]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds), *seed_args], cwd=checkout, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{checkout}: benchmark exited {proc.returncode}\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": line["correct"], "attempted": line["attempted"],
            "failed": line["failed"],
            **{name: entry["value"] for name, entry in line["metrics"].items()}}


def quartiles(values: list) -> list:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def summarise(pairs: list, metrics: list) -> dict:
    """Per end-to-end metric of BENCHMARK.json: quartiles of both sides, the
    pairs the change won, and whether its median is worse than the parent's
    by more than the metric's relative bound."""
    out = {}
    for metric in metrics:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        parent = quartiles([p["parent"][name] for p in pairs])
        change = quartiles([p["change"][name] for p in pairs])
        sign = 1 if better == "higher" else -1
        out[name] = {
            "better": better,
            "bound": bound,
            "parent_q1_median_q3": parent,
            "change_q1_median_q3": change,
            "change_wins": sum(sign * (p["change"][name] - p["parent"][name]) > 0
                               for p in pairs),
            "pairs": len(pairs),
            "worse_beyond_bound": sign * (change[1] - parent[1]) < -bound * abs(parent[1]),
        }
    return out


def faults(pairs: list) -> dict:
    """Per side: the runs judged incorrect and the trials failed over all runs."""
    return {side: {"incorrect_runs": sum(not p[side]["correct"] for p in pairs),
                   "failed_trials": sum(p[side]["failed"] for p in pairs)}
            for side in ("parent", "change")}


def pair_line(workload: str, k: int, pair: dict) -> str:
    """One pair's trials_per_s, each side marked when its run was incorrect."""
    def side(name):
        run = pair[name]
        flag = "" if run["correct"] else f" (INCORRECT, {run['failed']} failed trials)"
        return f"{name} {run['trials_per_s']:.4g}{flag}"
    return f"{workload} pair {k}: {side('parent')}, {side('change')} trials/s"


def pair_count(text: str) -> int:
    """--pairs: quartiles need at least two pairs."""
    count = int(text)
    if count < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 pairs, got {count}")
    return count


def workload_list(text: str) -> list:
    """--workload: one name or several, comma-separated, each at most once."""
    names = text.split(",")
    if "" in names or len(set(names)) < len(names):
        raise argparse.ArgumentTypeError(f"need distinct comma-separated workloads, got {text!r}")
    return names


def git_revision(checkout: Path) -> str:
    """The side's `git describe`; for a side that is not a git checkout, its
    `src_sha256`."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                          capture_output=True, text=True)
    if proc.returncode == 0:
        return proc.stdout.strip()
    return src_sha256(checkout)


def src_sha256(checkout: Path) -> str:
    """A content hash of the side's src/ tree, "src-sha256:<12 hex>", over
    each file's path, length and bytes in path order, bytecode caches left
    out."""
    src = checkout / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            data = path.read_bytes()
            digest.update(f"{path.relative_to(src).as_posix()}\0{len(data)}\0".encode())
            digest.update(data)
    return f"src-sha256:{digest.hexdigest()[:12]}"


def src_lines(checkout: Path) -> int:
    """The lines of the side's src/**/*.py files, as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src").rglob("*.py"))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", type=workload_list, required=True,
                   help="a workload, or several separated by commas")
    p.add_argument("--pairs", type=pair_count, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--seed", type=int, help="master seed of the workload (default: its own)")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]

    pairs = {workload: [] for workload in args.workload}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for workload in args.workload:
            pair = {side: run_side(getattr(args, side), workload, args.seconds, args.seed)
                    for side in order}
            pairs[workload].append({"first": order[0], **pair})
            print(pair_line(workload, k, pair), flush=True)

    result = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    result["machine"] = {"python": platform.python_version(), "processor": platform.machine(),
                         "cpus": os.cpu_count(), "system": platform.platform()}
    change_hash = src_sha256(args.change)
    matches = change_hash == src_sha256(ROOT)
    if not matches:
        print(f"warning: the change side's {change_hash} is not this tree's src/", file=sys.stderr)
    for workload, runs in pairs.items():
        key = workload if args.seed is None else f"{workload}@{args.seed}"
        result["workloads"][key] = {
            "parent_revision": git_revision(args.parent),
            "parent_src_sha256": src_sha256(args.parent),
            "parent_src_lines": src_lines(args.parent),
            "change_revision": git_revision(args.change),
            "change_src_sha256": change_hash,
            "change_src_lines": src_lines(args.change),
            "change_matches_tree": matches,
            "seconds": args.seconds,
            "seed": args.seed,
            "summary": summarise(runs, metrics),
            "faults": faults(runs),
            "pairs": runs,
        }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
