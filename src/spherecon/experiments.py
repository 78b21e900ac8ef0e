"""Seeded Monte-Carlo experiment harness.

Every experiment is fully determined by (master seed, config): per-trial
seeds are derived through numpy's SeedSequence with the key
(master_seed, trial_index, stream), so trial-level parallelism cannot change
results. Records are written as CSV with the schema
trial,seed,n,d,graph_hash,matrix_hash,class,rank,iters,residual_A,residual_MA,spec_radius
and each command also emits a summary dict (JSON on disk).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import warnings
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import dynamics, stability
from .fixedpoint_rank import (assemble_Jg, build_fixed_point_system, matrix_rank,
                              skew_null_vectors, symmetric_rank_deficiency_check)
from .graph import (DirectedGraph, complete_graph, random_connected_er,
                    random_strongly_connected, random_symmetric_connected,
                    ring_graph)
from .state import Configuration, classify_configuration, random_configuration
from .weights import WeightMatrix, descent_matrix, sample_sdd

RECORD_FIELDS = ["trial", "seed", "n", "d", "graph_hash", "matrix_hash", "class",
                 "rank", "iters", "residual_A", "residual_MA", "spec_radius"]


@dataclass
class ExperimentConfig:
    seed: int
    trials: int = 10_000
    n: Optional[int] = None
    d: Optional[int] = None
    n_range: tuple = (3, 8)
    d_range: tuple = (2, 5)
    graph: str = "random"  # random | complete | ring | er
    edge_prob: float = 0.5
    symmetric: Optional[bool] = None
    margin: float = 0.1
    slack: float = 0.25
    fp_tol: float = 1e-12
    max_iter: int = 100_000
    rank_tol: float = 1e-6
    consensus_tol: float = 1e-9
    out: Optional[str] = None

    def __post_init__(self):
        if self.seed is None:
            raise ValueError("a master seed is required (no wall-clock seeding)")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for name in ("fp_tol", "rank_tol", "consensus_tol", "margin", "slack"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")

    @staticmethod
    def from_json(path: str, **overrides) -> "ExperimentConfig":
        with open(path) as fh:
            obj = json.load(fh)
        obj.update({k: v for k, v in overrides.items() if v is not None})
        if "n_range" in obj:
            obj["n_range"] = tuple(obj["n_range"])
        if "d_range" in obj:
            obj["d_range"] = tuple(obj["d_range"])
        return ExperimentConfig(**obj)


@dataclass
class TrialRecord:
    trial: int
    seed: int
    n: int
    d: int
    graph_hash: str
    matrix_hash: str
    klass: str
    rank: int
    iters: int
    residual_A: float
    residual_MA: float
    spec_radius: float

    def as_row(self) -> list:
        row = asdict(self)
        row["class"] = row.pop("klass")
        return [row[f] for f in RECORD_FIELDS]


def derive_seed(master_seed: int, *key: int) -> int:
    """Deterministic 64-bit per-trial seed from the master seed and a key."""
    state = np.random.SeedSequence([int(master_seed), *map(int, key)]).generate_state(2)
    return (int(state[0]) << 32) | int(state[1])


def _short_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def graph_hash(g: DirectedGraph) -> str:
    return _short_hash(g.to_json().encode())


def matrix_hash(a: np.ndarray) -> str:
    return _short_hash(np.ascontiguousarray(a).tobytes())


def _make_graph(cfg: ExperimentConfig, n: int, symmetric: bool, seed: int) -> DirectedGraph:
    if cfg.graph == "complete":
        return complete_graph(n)
    if cfg.graph == "ring":
        return ring_graph(n)
    if cfg.graph == "er":
        if not symmetric:
            raise ValueError("the er graph model is symmetric-only")
        return random_connected_er(n, cfg.edge_prob, seed)
    if symmetric:
        return random_symmetric_connected(n, cfg.edge_prob, seed)
    return random_strongly_connected(n, cfg.edge_prob, seed)


def write_records_csv(path: str, records: list):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_FIELDS)
        for r in records:
            writer.writerow(r.as_row())


def write_summary_json(path: str, summary: dict):
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, default=str)


def _emit(cfg: ExperimentConfig, records: list, summary: dict):
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        write_records_csv(os.path.join(cfg.out, "records.csv"), records)
        write_summary_json(os.path.join(cfg.out, "summary.json"), summary)


# --------------------------------------------------------------------------
# sweep: the plain iteration from random starts always reaches consensus
# --------------------------------------------------------------------------

def cmd_consensus_sweep(cfg: ExperimentConfig):
    """Random (graph, SDD weight matrix, start) per trial; run the iteration
    and classify the limit. For symmetric trials the potential is recorded
    and its per-step decrease is tracked (it should never decrease).

    Graph topologies are symmetric even when the weights are not: directed
    circulation-dominated topologies (e.g. a pure directed cycle) admit
    attracting rotating-wave orbits on the circle that never reach consensus,
    so they are probed separately (theorem2 command) rather than swept here.
    """
    records, errors = [], []
    consensus_count = 0
    min_potential_delta = np.inf
    rng = np.random.default_rng(derive_seed(cfg.seed, 0xABCD))
    for t in range(cfg.trials):
        tseed = derive_seed(cfg.seed, t)
        n = cfg.n or int(rng.integers(cfg.n_range[0], cfg.n_range[1] + 1))
        d = cfg.d or int(rng.integers(cfg.d_range[0], cfg.d_range[1] + 1))
        symmetric = bool(rng.integers(0, 2)) if cfg.symmetric is None else cfg.symmetric
        try:
            g = _make_graph(cfg, n, True, derive_seed(cfg.seed, t, 1))
            a = sample_sdd(g, cfg.margin, symmetric, derive_seed(cfg.seed, t, 2))
            c0 = random_configuration(n, d, derive_seed(cfg.seed, t, 3))
            res = dynamics.run(a, c0, fp_tol=cfg.fp_tol, max_iter=cfg.max_iter,
                               record_potential=symmetric, a_for_potential=a if symmetric else None)
            cls = classify_configuration(res.final, cfg.consensus_tol, cfg.rank_tol)
            if symmetric and res.potential_history is not None and len(res.potential_history) > 1:
                delta = float(np.diff(res.potential_history).min())
                min_potential_delta = min(min_potential_delta, delta)
            rho = stability.spectral_radius(a, res.final)
            if cls.is_consensus:
                consensus_count += 1
            records.append(TrialRecord(t, tseed, n, d, graph_hash(g),
                                       matrix_hash(a.entries), cls.kind, cls.rank,
                                       res.iterations, res.residual, float("nan"), rho))
        except Exception as exc:  # record, never drop silently
            errors.append({"trial": t, "error": str(exc)})
            records.append(TrialRecord(t, tseed, n, d, "", "", "error", 0, 0,
                                       float("nan"), float("nan"), float("nan")))
    summary = {
        "experiment": "consensus_sweep",
        "seed": cfg.seed,
        "trials": cfg.trials,
        "consensus_fraction": consensus_count / cfg.trials,
        "nonconsensus_trials": cfg.trials - consensus_count - len(errors),
        "min_potential_delta": None if min_potential_delta is np.inf else min_potential_delta,
        "errors": errors,
        "graph_model": cfg.graph,
        "margin": cfg.margin,
    }
    _emit(cfg, records, summary)
    return records, summary


# --------------------------------------------------------------------------
# rank-table: descent mode over symmetric matrices, limit rank distribution
# --------------------------------------------------------------------------

def cmd_rank_table(cfg: ExperimentConfig):
    """Symmetric SDD matrices, descent iteration from random starts; tabulate
    the numerical rank of the non-consensus limits for fixed (n, d).

    Only converged trajectories count as limits; a trial that reaches
    max_iter is recorded as non-converged and left out of the table."""
    if cfg.symmetric is False:
        raise ValueError("rank-table requires symmetric weight matrices")
    if cfg.n is None or cfg.d is None:
        raise ValueError("rank-table requires explicit n and d")
    n, d = cfg.n, cfg.d
    records, errors = [], []
    rank_counts: dict = {}
    for t in range(cfg.trials):
        tseed = derive_seed(cfg.seed, t)
        try:
            g = _make_graph(cfg, n, True, derive_seed(cfg.seed, t, 1))
            a = sample_sdd(g, cfg.margin, True, derive_seed(cfg.seed, t, 2))
            c0 = random_configuration(n, d, derive_seed(cfg.seed, t, 3))
            res = dynamics.find_nonconsensus_fixed_point(
                a, c0, slack=cfg.slack, fp_tol=cfg.fp_tol, max_iter=cfg.max_iter)
            cls = classify_configuration(res.final, cfg.consensus_tol, cfg.rank_tol)
            if res.converged:
                rank_counts[cls.rank] = rank_counts.get(cls.rank, 0) + 1
            kind = cls.kind if res.converged else "nonconverged"
            records.append(TrialRecord(t, tseed, n, d, graph_hash(g),
                                       matrix_hash(a.entries), kind, cls.rank,
                                       res.iterations, res.residual_weight,
                                       res.residual, float("nan")))
        except Exception as exc:
            errors.append({"trial": t, "error": str(exc)})
            records.append(TrialRecord(t, tseed, n, d, "", "", "error", 0, 0,
                                       float("nan"), float("nan"), float("nan")))
    total = sum(rank_counts.values())
    summary = {
        "experiment": "rank_table",
        "seed": cfg.seed,
        "n": n, "d": d,
        "trials": cfg.trials,
        "rank_counts": {str(k): v for k, v in sorted(rank_counts.items())},
        "rank_frequencies": {str(k): v / total for k, v in sorted(rank_counts.items())},
        "nonconverged": sum(r.klass == "nonconverged" for r in records),
        "errors": errors,
        "graph_model": cfg.graph,
        "edge_prob": cfg.edge_prob,
        "margin": cfg.margin,
        "slack": cfg.slack,
    }
    _emit(cfg, records, summary)
    return records, summary


# --------------------------------------------------------------------------
# theorem2: descent mode over non-symmetric matrices never leaves rank one
# --------------------------------------------------------------------------

def cmd_theorem2_probe(cfg: ExperimentConfig):
    """Descent mode with non-symmetric SDD matrices: d=2 over strongly
    connected graphs, d>=3 over complete graphs. Counts converged limits of
    rank >= 2 (expected zero) and stores any counterexample verbatim.

    Without symmetry the descent iteration has no monotone potential, so many
    trajectories cycle instead of converging; those produce no fixed point and
    are recorded as non-converged rather than counted against the probe.
    Trials are grouped by (n, d) and run in lockstep for speed.
    """
    if cfg.symmetric:
        raise ValueError("theorem2 probe requires non-symmetric weight matrices")
    errors, counterexamples = [], []
    rng = np.random.default_rng(derive_seed(cfg.seed, 0xF00D))

    trials = []  # (t, n, d, graph, weight matrix, start rows) in trial order
    for t in range(cfg.trials):
        d = cfg.d or int(rng.choice([2, 3, 4]))
        n = cfg.n or int(rng.integers(cfg.n_range[0], cfg.n_range[1] + 1))
        try:
            if d >= 3:
                g = complete_graph(n)
            else:
                g = _make_graph(cfg, n, False, derive_seed(cfg.seed, t, 1))
            a = sample_sdd(g, cfg.margin, False, derive_seed(cfg.seed, t, 2))
            c0 = random_configuration(n, d, derive_seed(cfg.seed, t, 3))
            trials.append((t, n, d, g, a, c0.rows))
        except Exception as exc:
            errors.append({"trial": t, "error": str(exc)})
            trials.append((t, n, d, None, None, None))

    groups: dict = {}
    by_trial = {t: (g, a, rows) for t, _, _, g, a, rows in trials}
    for t, n, d, g, a, rows in trials:
        if a is not None:
            groups.setdefault((n, d), []).append(t)
    results = {}  # trial index -> (final rows, iters, residual, failed)
    for (n, d), members in groups.items():
        mats = np.stack([descent_matrix(by_trial[t][1], cfg.slack).entries
                         for t in members])
        starts = np.stack([by_trial[t][2] for t in members])
        finals, iters, residuals, failed = dynamics.run_batch(
            mats, starts, fp_tol=cfg.fp_tol, max_iter=cfg.max_iter)
        for pos, t in enumerate(members):
            results[t] = (finals[pos], int(iters[pos]),
                          float(residuals[pos]), bool(failed[pos]))

    records = []
    nonconverged = 0
    for t, n, d, g, a, _ in trials:
        tseed = derive_seed(cfg.seed, t)
        if a is None:
            records.append(TrialRecord(t, tseed, n, d, "", "", "error", 0, 0,
                                       float("nan"), float("nan"), float("nan")))
            continue
        final_rows, iters, residual, failed = results[t]
        if failed:
            errors.append({"trial": t, "error": "zero-norm row image"})
            records.append(TrialRecord(t, tseed, n, d, graph_hash(g),
                                       matrix_hash(a.entries), "error", 0, iters,
                                       float("nan"), float("nan"), float("nan")))
            continue
        final = Configuration(final_rows)
        cls = classify_configuration(final, cfg.consensus_tol, cfg.rank_tol)
        converged = residual <= cfg.fp_tol
        if not converged:
            nonconverged += 1
        if converged and cls.rank >= 2:
            counterexamples.append({
                "trial": t, "matrix": a.entries.tolist(),
                "graph": json.loads(g.to_json()),
                "limit": json.loads(final.to_json()),
            })
        res_a = dynamics.fixed_point_residual(a, final)
        kind = cls.kind if converged else "nonconverged"
        records.append(TrialRecord(t, tseed, n, d, graph_hash(g),
                                   matrix_hash(a.entries), kind, cls.rank,
                                   iters, res_a, residual, float("nan")))
    summary = {
        "experiment": "theorem2_probe",
        "seed": cfg.seed,
        "trials": cfg.trials,
        "rank_ge2_count": len(counterexamples),
        "nonconverged": nonconverged,
        "counterexamples": counterexamples,
        "errors": errors,
    }
    _emit(cfg, records, summary)
    return records, summary


# --------------------------------------------------------------------------
# pentagon: the classic neutral non-consensus fixed point on the circle
# --------------------------------------------------------------------------

def pentagon_weight_matrix() -> WeightMatrix:
    """Circulant 5x5 matrix: diagonal 3, ring neighbors 1."""
    g = ring_graph(5)
    a = 3.0 * np.eye(5)
    for i, j in g.edges:
        a[i - 1, j - 1] = 1.0
    return WeightMatrix(a, g)


def pentagon_configuration():
    angles = 2.0 * np.pi * np.arange(5) / 5.0
    return Configuration(np.column_stack([np.cos(angles), np.sin(angles)]))


def cmd_pentagon_demo(out: Optional[str] = None) -> dict:
    """Verify the regular pentagon is a neutral, rank-two fixed point."""
    a = pentagon_weight_matrix()
    c = pentagon_configuration()
    residual = dynamics.fixed_point_residual(a, c)
    cls = classify_configuration(c)
    rho = stability.spectral_radius(a, c)
    gram = c.rows @ c.rows.T
    neighbor_dots = [float(gram[i, (i + 1) % 5]) for i in range(5)]
    report = {
        "experiment": "pentagon",
        "residual": residual,
        "classification": cls.kind,
        "rank": cls.rank,
        "spectral_radius": rho,
        "neighbor_dots": neighbor_dots,
        "expected_neighbor_dot": float(np.cos(2.0 * np.pi / 5.0)),
        "neutral": bool(abs(rho - 1.0) <= 1e-9),
    }
    if out:
        os.makedirs(out, exist_ok=True)
        write_summary_json(os.path.join(out, "summary.json"), report)
    return report


# --------------------------------------------------------------------------
# audit: instability certificates at descent-found fixed points (d >= 3)
# --------------------------------------------------------------------------

class DescentPoints(list):
    """(weight matrix, limit configuration, trial index) triples, with
    `counts`: the points requested, the trials run, and the trials whose
    iteration hit a zero-norm row image."""

    counts: dict


def collect_descent_fixed_points(cfg: ExperimentConfig, count: int,
                                 require_rank_ge: int = 2,
                                 a_residual_tol: float = 1e-9) -> DescentPoints:
    """Run descent trials until `count` non-consensus limits that are also
    fixed points of the plain weight iteration have been found, or the trial
    budget max(50 * count, 1000) is spent; a shortfall is warned of with a
    RuntimeWarning."""
    out = []
    t = 0
    zero_norm = 0
    limit = max(50 * count, 1000)
    while len(out) < count and t < limit:
        try:
            g = _make_graph(cfg, cfg.n, True, derive_seed(cfg.seed, t, 1))
            a = sample_sdd(g, cfg.margin, True, derive_seed(cfg.seed, t, 2))
            c0 = random_configuration(cfg.n, cfg.d, derive_seed(cfg.seed, t, 3))
            res = dynamics.find_nonconsensus_fixed_point(
                a, c0, slack=cfg.slack, fp_tol=cfg.fp_tol, max_iter=cfg.max_iter)
            cls = classify_configuration(res.final, cfg.consensus_tol, cfg.rank_tol)
            if (res.converged and not cls.is_consensus
                    and cls.rank >= require_rank_ge
                    and res.residual_weight <= a_residual_tol):
                out.append((a, res.final, t))
        except ZeroDivisionError:
            zero_norm += 1
        t += 1
    if len(out) < count:
        warnings.warn(f"found {len(out)} of {count} descent fixed points in "
                      f"{t} trials ({zero_norm} zero-norm)", RuntimeWarning)
    points = DescentPoints(out)
    points.counts = {"requested": count, "trials_run": t, "zero_norm_trials": zero_norm}
    return points


def cmd_stability_audit(cfg: ExperimentConfig, count: int = 100,
                        det_trials: int = 1000):
    """Certify instability of descent-found non-consensus fixed points for
    d >= 3, check the collapsed-trace identity at each, run the perturbation
    escape test, and report the determinant floor for matrices satisfying the
    sqrt(2) row condition."""
    if cfg.d is None or cfg.d < 3:
        raise ValueError("stability audit requires d >= 3")
    if cfg.n is None:
        raise ValueError("stability audit requires explicit n")
    points = collect_descent_fixed_points(cfg, count, require_rank_ge=2)
    certified = 0
    trace_matches = 0
    escapes = 0
    details = []
    rng = np.random.default_rng(derive_seed(cfg.seed, 0xE5C))
    from .state import tangent_basis
    for a, c, t in points:
        cert = stability.instability_certificate(a, c, fp_tol=1e-8)
        trace = stability.trace_formula_check(a, c)
        if cert.label == "unstable-certified":
            certified += 1
        if trace.match:
            trace_matches += 1
        # perturb along the tangent space and resume the plain iteration
        basis = tangent_basis(c)
        noise = rng.standard_normal(c.n * (c.d - 1))
        noise *= 1e-6 / np.linalg.norm(noise)
        perturbed = Configuration(
            (c.vector + basis.block_diagonal() @ noise).reshape(c.n, c.d))
        res = dynamics.run(a, perturbed, fp_tol=cfg.fp_tol, max_iter=cfg.max_iter)
        if classify_configuration(res.final, cfg.consensus_tol).is_consensus:
            escapes += 1
        details.append({"trial": t, "label": cert.label,
                        "spectral_radius": cert.spectral_radius,
                        "certificate_eigenvalue": cert.certificate_eigenvalue,
                        "trace_match": trace.match})
    # determinant floor for sqrt(2)-condition matrices
    min_abs_det = np.inf
    for k in range(det_trials):
        g = _make_graph(cfg, cfg.n, True, derive_seed(cfg.seed, k, 11))
        a = sample_sdd(g, 0.45, True, derive_seed(cfg.seed, k, 12))
        c = random_configuration(cfg.n, cfg.d, derive_seed(cfg.seed, k, 13))
        chk = stability.determinant_nonzero_check(a, c)
        min_abs_det = min(min_abs_det, abs(chk.det))
    summary = {
        "experiment": "stability_audit",
        "seed": cfg.seed,
        "n": cfg.n, "d": cfg.d,
        "fixed_points": len(points),
        **points.counts,
        "unstable_certified": certified,
        "trace_matches": trace_matches,
        "escapes_to_consensus": escapes,
        "min_abs_det_sqrt2": min_abs_det,
        "details": details,
    }
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        write_summary_json(os.path.join(cfg.out, "summary.json"), summary)
    return summary


# --------------------------------------------------------------------------
# jg-rank: Jacobian rank checks of the parametric residual at fixed points
# --------------------------------------------------------------------------

def cmd_jg_rank(cfg: ExperimentConfig, count: int = 50):
    """On complete graphs: the non-symmetric parametrization Jacobian has full
    rank nm at descent-found fixed points, while the symmetric one is rank
    deficient by m(m-1)/2 (checked via explicit skew null vectors)."""
    if cfg.n is None or cfg.d is None:
        raise ValueError("jg-rank requires explicit n and d")
    cfg_complete = ExperimentConfig(**{**asdict(cfg), "graph": "complete"})
    points = collect_descent_fixed_points(cfg_complete, count, require_rank_ge=1)
    reports = []
    full_rank_count = 0
    deficiency_ok = 0
    rank_ge2 = 0
    max_null_residual = 0.0
    for a, c, t in points:
        sys = build_fixed_point_system(a, c)
        nonsym = assemble_Jg(sys, symmetric=False)
        r_nonsym = matrix_rank(nonsym.full)
        if r_nonsym == sys.n * sys.m:
            full_rank_count += 1
        entry = {"trial": t, "m": sys.m, "nonsym_rank": r_nonsym,
                 "nonsym_full": r_nonsym == sys.n * sys.m}
        if sys.m >= 2:
            rank_ge2 += 1
            rep = symmetric_rank_deficiency_check(sys)
            if rep.satisfied:
                deficiency_ok += 1
            null_vecs = skew_null_vectors(sys)
            jg = assemble_Jg(sys, symmetric=True).full
            resid = float(np.abs(null_vecs @ jg).max()) if null_vecs.size else 0.0
            max_null_residual = max(max_null_residual, resid)
            entry.update({"sym_rank": rep.rank, "sym_bound": rep.bound,
                          "sym_deficient": rep.satisfied, "null_residual": resid})
        reports.append(entry)
    summary = {
        "experiment": "jg_rank",
        "seed": cfg.seed,
        "n": cfg.n, "d": cfg.d,
        "fixed_points": len(points),
        **points.counts,
        "nonsym_full_rank": full_rank_count,
        "rank_ge2_points": rank_ge2,
        "sym_deficiency_satisfied": deficiency_ok,
        "max_null_residual": max_null_residual,
        "reports": reports,
    }
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        write_summary_json(os.path.join(cfg.out, "summary.json"), summary)
    return summary
