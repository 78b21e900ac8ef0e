"""Benchmark of the spherecon package.

    python3 perfbench/run.py --workload sweep [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all

Each workload runs in a fresh Python process (worker.py) for `--seconds`
seconds of whole rounds, then its outputs are checked. With `--trace 0` the
last line of standard output is a JSON object with the end-to-end metrics;
with `--trace 1` it holds the per-layer metrics of a traced run. The full
result, with provenance and every per-round figure, is written under
.bench_out/. Exit status: 0 when every check passed, 1 when one failed, 2 when
the program could not be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ["sweep", "theorem2", "linearize"]
# the master seeds of acceptance criteria 3, 6 and 9
DEFAULT_SEEDS = {"sweep": 20260826, "theorem2": 20260826, "linearize": 20260835}
SETUP_PROBES = 4          # extra processes that only set up, for the setup_s median
TIME_LIMIT_S = 170.0      # a run of one workload ends within this, or fails
# One BLAS thread: on a small shared machine a second OpenBLAS thread spins
# against whatever else runs, and the n = 64 linear algebra of `linearize`
# was measured 8-10 times slower that way.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_names():
    with open(ROOT / "BENCHMARK.json") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]


class ProgramError(RuntimeError):
    pass


def spawn(args, deadline):
    """Run worker.py with args; returns its JSON result."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise ProgramError("time limit reached before the worker started")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0)],
            cwd=ROOT, env={**os.environ, **WORKER_ENV}, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ProgramError(f"worker exceeded the time limit: {exc}") from None
    if proc.returncode != 0:
        raise ProgramError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace):
    deadline = time.perf_counter() + TIME_LIMIT_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--out-dir", str(OUT_DIR)]
    probes = [] if trace else [spawn(common + ["--setup-only"], deadline)["setup_s"]
                               for _ in range(SETUP_PROBES)]
    result = spawn(common + ["--trace", str(trace)], deadline)
    setups = probes + [result["setup_s"]]
    result["setup_probes_s"] = setups
    if trace:
        layers = result["layers"]
        metrics = {n: {"value": layers.get(n, 0), "unit": u} for n, u in per_layer_names()}
    else:
        values = {"trials_per_s": result["trials_per_s"],
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
    result["metrics"] = metrics
    result["correct"] = not result["failures"]
    path = OUT_DIR / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=1))
    return result


def summary_line(result):
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": result["metrics"]}


def report(name, seed, result):
    print(f"{name}: seed {seed}, {result['rounds']} rounds, "
          f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for failure in result["failures"][:20]:
        print(f"  CHECK FAILED: {failure}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:48s} {entry['value']:.6g} {entry['unit']}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, help="workload seed (default: the acceptance suite's)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "spherecon" / "__init__.py").is_file():
        print(f"spherecon sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        seed = DEFAULT_SEEDS[name] if args.seed is None else args.seed
        try:
            results[name] = run_workload(name, seed, args.seconds, args.trace)
        except ProgramError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        report(name, seed, results[name])
    correct = all(r["correct"] for r in results.values())
    if args.workload == "all":
        print(json.dumps({name: summary_line(r) for name, r in results.items()}))
    else:
        print(json.dumps(summary_line(results[args.workload])))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
