"""Runs one workload in this process and prints its figures as one JSON line.

Started by run.py, once per run and once per set-up probe. Set-up is timed
from `--t0`, the parent's `time.perf_counter()` just before it started this
process (the clock is system-wide), to the first timed call.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def import_program():
    """Import spherecon from the checkout's own src/, never from elsewhere."""
    if not (SRC / "spherecon" / "__init__.py").is_file():
        raise SystemExit(f"spherecon sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import spherecon
    import spherecon.cli  # noqa: F401  (binds every submodule on the package)
    if Path(spherecon.__file__).resolve().parent != SRC / "spherecon":
        raise SystemExit(f"imported spherecon from {spherecon.__file__}, not {SRC}")
    return spherecon


def blas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def provenance(seed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_revision": git_revision(),
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sc = import_program()
    import workloads
    workload = workloads.WORKLOADS[args.workload](
        sc, args.seed, os.path.join(args.out_dir, "scratch"))
    workload.setup()
    setup_s = time.perf_counter() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(sc)
    plain, traced, fails = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    r = 0
    while r == 0 or time.perf_counter() < deadline:
        trials, seconds, out = workload.run_round(r, "plain")
        plain.append(seconds)
        attempted += trials
        failed += workload.failed_trials(out)
        fails += workload.check_round(r, out)
        if tracer is not None:
            tracer.install()
            try:
                trials, seconds, out_traced = workload.run_round(r, "traced", tracer)
            finally:
                tracer.uninstall()
            traced.append(seconds)
            attempted += trials
            failed += workload.failed_trials(out_traced)
            fails += workload.check_round(r, out_traced)
            fails += same_outputs(out, out_traced, r)
            workload.discard(out_traced)
        workload.discard(out)
        r += 1

    result = {
        "workload": args.workload,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": len(plain),
        "trials_per_round": workload.trials,
        "round_seconds": plain,
        "trials_per_s": trials_per_s(workload.trials, plain),
        "attempted": attempted,
        "failed": failed,
        "failures": fails,
        "provenance": provenance(args.seed),
    }
    if tracer is not None:
        plain_s = sum(map(sum, plain))
        traced_s = sum(map(sum, traced))
        layers = tracer.layer_metrics()
        layers["trace.rounds"] = len(traced)
        layers["trace.overhead_s"] = traced_s - plain_s
        layers["trace.overhead_share"] = (traced_s - plain_s) / plain_s
        result["layers"] = layers
        result["traced_round_seconds"] = traced
        spans = os.path.join(args.out_dir, f"{args.workload}-seed{args.seed}.spans.jsonl")
        tracer.write_spans(spans)
        result["spans_file"] = os.path.relpath(spans, ROOT)
    print(json.dumps(result))
    return 0


def trials_per_s(trials, rounds):
    """Trials of one round over the round's fastest time: the sum of its
    timed parts, each at its fastest over the rounds. Other tenants of a
    shared machine slow whole stretches of a run, by up to 1.5 times for
    minutes, so the median and the quartiles of round times moved with them
    between runs of the same code; the fastest round follows the program's
    own cost."""
    return trials / sum(min(part) for part in zip(*rounds))


def same_outputs(out, out_traced, r):
    """The traced round must write the same bytes as the plain one."""
    if not isinstance(out, str):
        return []
    fails = []
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as a, \
                open(os.path.join(out_traced, name), "rb") as b:
            if a.read() != b.read():
                fails.append(f"round {r}: traced run changed {name}")
    return fails


if __name__ == "__main__":
    sys.exit(main())
