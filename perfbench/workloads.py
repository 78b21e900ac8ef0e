"""The benchmark's workloads.

A workload is built once from its seed (`setup`), then runs whole rounds of
the same operations (`run_round`) and checks each round's outputs
(`check_round`) outside the timed region. Rounds of the Monte-Carlo
workloads differ only in their master seed, `seed + r * ROUND_STRIDE`, so a
run covers fresh trials.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import time

import numpy as np

import checks

ROUND_STRIDE = 1_000_003


class CliWorkload:
    """A Monte-Carlo command run in-process through `spherecon.cli.main`,
    with the arguments a user would type and `--out` in a scratch directory
    inside the checkout."""

    name = ""
    trials = 0       # trials per round

    def __init__(self, sc, seed, scratch):
        self.sc = sc
        self.seed = seed
        self.scratch = scratch

    def setup(self):
        os.makedirs(self.scratch, exist_ok=True)

    def round_seed(self, r):
        return self.seed + r * ROUND_STRIDE

    def argv(self, seed, out):
        raise NotImplementedError

    def run_round(self, r, label, tracer=None):
        """Run round r; returns (trials, [seconds], output directory)."""
        out = os.path.join(self.scratch, f"{self.name}-{os.getpid()}-{r}-{label}")
        argv = self.argv(self.round_seed(r), out)
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = self.sc.cli.main(argv)
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"{self.name}: cli exited {code}")
        return self.trials, [elapsed], out

    def check_round(self, r, out):
        records, summary = checks.read_outputs(out)
        fails = self.check_outputs(records, summary, f"{self.name} round {r}")
        rng = np.random.default_rng([self.seed, r])
        fails += self.check_reference(r, records, summary, rng)
        return fails

    def failed_trials(self, out):
        _, summary = checks.read_outputs(out)
        return len(summary.get("errors", []))

    @staticmethod
    def discard(out):
        shutil.rmtree(out, ignore_errors=True)


class Sweep(CliWorkload):
    """The consensus sweep over mixed n in [3, 8] and d in [3, 5], symmetric
    and non-symmetric weights. d = 2 is left out: on the circle a bare cycle
    graph has stable twisted fixed points, so some seeds give a trial that
    never reaches consensus (see CHANGES.md)."""

    name = "sweep"
    trials = 50
    margin, edge_prob = 0.1, 0.5
    d_range = (3, 5)

    def setup(self):
        super().setup()
        self.config = os.path.join(self.scratch, "sweep-config.json")
        with open(self.config, "w") as fh:
            json.dump({"d_range": list(self.d_range), "margin": self.margin,
                       "edge_prob": self.edge_prob}, fh)

    def argv(self, seed, out):
        return ["sweep", "--config", self.config, "--trials", str(self.trials),
                "--seed", str(seed), "--out", out]

    def check_outputs(self, records, summary, where):
        return checks.check_sweep(records, summary, self.trials, where)

    def check_reference(self, r, records, summary, rng):
        """Re-run one seeded trial of the round with the plain-numpy loop, on
        inputs rebuilt from its derived seeds."""
        if not records:
            return []  # the record count check has already failed
        sc, seed = self.sc, self.round_seed(r)
        rec = records[int(rng.integers(len(records)))]
        t, n, d = int(rec["trial"]), int(rec["n"]), int(rec["d"])
        g = sc.graph.random_symmetric_connected(n, self.edge_prob, checks.derive_seed(seed, t, 1))
        x0 = sc.state.random_configuration(n, d, checks.derive_seed(seed, t, 3)).rows
        candidates = [(sc.weights.sample_sdd(g, self.margin, sym,
                                             checks.derive_seed(seed, t, 2)).entries, x0)
                      for sym in (True, False)]
        return checks.check_sweep_reference(rec, candidates, f"sweep round {r}")


class Theorem2(CliWorkload):
    name = "theorem2"
    trials = 40
    n, d = 5, 2

    def argv(self, seed, out):
        return ["theorem2", "--n", str(self.n), "--d", str(self.d),
                "--trials", str(self.trials), "--seed", str(seed), "--out", out]

    def check_outputs(self, records, summary, where):
        return checks.check_theorem2(records, summary, self.trials, where)

    def check_reference(self, r, records, summary, rng):
        return []


class Linearize:
    """The per-point analysis of the audit and jg-rank commands, at fixed
    points built in closed form: the consensus configuration, and the regular
    n-gon under circulant symmetric weights on the ring and on the complete
    graph, rotated by a seeded orthogonal matrix."""

    name = "linearize"
    sizes = [(16, 2), (16, 3), (64, 2), (64, 3)]
    margin = 0.45             # diagonal above sqrt(2) times the off-diagonal row sum
    directions = 3            # finite-difference directions per point

    def __init__(self, sc, seed, scratch):
        self.sc = sc
        self.seed = seed
        self.points = []
        self.results = {}

    @property
    def trials(self):
        return len(self.points)

    def _circulant(self, n, kind, rng):
        row = np.zeros(n)
        for k in (1,) if kind == "ring" else range(1, n // 2 + 1):
            row[k] = row[n - k] = rng.uniform(0.5, 1.5)
        row[0] = (1.0 + self.margin) * row.sum()
        a = row[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]
        g = self.sc.graph.ring_graph(n) if kind == "ring" else self.sc.graph.complete_graph(n)
        return row, self.sc.weights.WeightMatrix(a, g)

    def setup(self):
        rng = np.random.default_rng(self.seed)
        for n, d in self.sizes:
            q, r = np.linalg.qr(rng.standard_normal((d, d)))
            q *= np.sign(np.diag(r))
            angles = 2.0 * np.pi * np.arange(n) / n
            polygon = np.zeros((n, d))
            polygon[:, 0], polygon[:, 1] = np.cos(angles), np.sin(angles)
            for kind in ("consensus", "ring", "complete"):
                row, a = self._circulant(n, "complete" if kind == "consensus" else kind, rng)
                if kind == "consensus":
                    xbar = rng.standard_normal(d)
                    rows = np.tile(xbar / np.linalg.norm(xbar), (n, 1))
                else:
                    rows = polygon @ q
                c = self.sc.state.Configuration(rows)
                self.points.append({
                    "name": f"{kind} n={n} d={d}", "kind": kind, "n": n, "d": d,
                    "tag": f"n{n}", "weight_matrix": a, "configuration": c,
                    "weights": a.entries, "rows": c.rows, "circulant_row": row,
                    "directions": checks.tangent_directions(c.rows, self.directions, rng),
                })

    def analyse(self, point, tracer):
        sc = self.sc
        a, c = point["weight_matrix"], point["configuration"]
        if tracer is not None:
            tracer.tag = point["tag"]
        out = {
            "residual": sc.dynamics.fixed_point_residual(a, c),
            "certificate": sc.stability.instability_certificate(a, c, fp_tol=1e-8),
            "trace": sc.stability.trace_formula_check(a, c),
            "determinant": sc.stability.determinant_nonzero_check(a, c),
            "report": sc.stability.differential_report(a, c),
        }
        system = sc.fixedpoint_rank.build_fixed_point_system(a, c)
        nonsym = sc.fixedpoint_rank.assemble_Jg(system, symmetric=False)
        out["m"] = system.m
        out["nonsym_rank"] = sc.fixedpoint_rank.matrix_rank(nonsym.full)
        if system.m >= 2:
            out["deficiency"] = sc.fixedpoint_rank.symmetric_rank_deficiency_check(system)
            null = sc.fixedpoint_rank.skew_null_vectors(system)
            jg = sc.fixedpoint_rank.assemble_Jg(system, symmetric=True).full
            out["null_residual"] = float(np.abs(null @ jg).max())
        if tracer is not None:
            tracer.tag = ""
        return out

    def run_round(self, r, label, tracer=None):
        """Analyse every point; returns (trials, per-point seconds, key)."""
        results, seconds = [], []
        for point in self.points:
            start = time.perf_counter()
            results.append(self.analyse(point, tracer))
            seconds.append(time.perf_counter() - start)
        self.results[(r, label)] = results
        return self.trials, seconds, (r, label)

    def check_round(self, r, key):
        fails = []
        for point, result in zip(self.points, self.results[key]):
            fails += checks.check_linearize_point(point, result, f"linearize round {r}")
        return fails

    def failed_trials(self, key):
        return 0

    def discard(self, key):
        self.results.pop(key, None)


WORKLOADS = {w.name: w for w in (Sweep, Theorem2, Linearize)}
