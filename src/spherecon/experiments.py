"""Seeded Monte-Carlo experiment harness.

Every experiment is fully determined by (master seed, config): each draw
of a trial runs on its own generator, the one `np.random.default_rng` builds
from the seed numpy's SeedSequence derives from the key
(master_seed, trial_index, stream), so trial-level parallelism cannot change
results. Records are written as CSV with the schema
trial,seed,n,d,graph_hash,matrix_hash,class,rank,iters,residual_A,residual_MA,spec_radius
and each command also emits a summary dict (JSON on disk).

The trajectory commands share one pipeline: plan every trial, group the
trials by d, run each group as one lockstep call with the agents padded to
its largest n, then strip the pad rows and classify each limit. The audit's
perturbed escape trials, built from the points its descent search found,
run through the same pipeline unplanned. Planning is one batched pass:
`seeding` hashes every key of the batch at once into the record seeds and
the generators' state words, each trial draws on its own generators in the
one-trial samplers' order, and the graphs, weight matrices and starts of all
trials of one size are assembled as stacks.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import warnings
from collections import namedtuple
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from . import dynamics, stability
from .fixedpoint_rank import (assemble_Jg, build_fixed_point_system, matrix_rank,
                              symmetric_rank_deficiency_check)
from .graph import (DirectedGraph, adjacency_matrix, backbone_graphs, complete_graph,
                    random_connected_er, ring_graph)
from .seeding import derive_seed, derive_seeds, generator, generator_words
from .state import Configuration, classify_configuration, start_rows, tangent_basis
from .tolerances import A_RESIDUAL_TOL, AUDIT_PERTURBATION, LIMIT_RANK_TOL
from .weights import WeightMatrix, descent_matrix, sdd_entries

GRAPH_MODELS = ("random", "complete", "ring", "er")
RECORD_FIELDS = ["trial", "seed", "n", "d", "graph_hash", "matrix_hash", "class",
                 "rank", "iters", "residual_A", "residual_MA", "spec_radius"]


class MissingSeedError(ValueError):
    """A config without a master seed; there is no wall-clock seeding."""


@dataclass
class ExperimentConfig:
    seed: int
    trials: int = 10_000
    n: Optional[int] = None
    d: Optional[int] = None
    n_range: tuple = (3, 8)
    d_range: tuple = (2, 5)
    graph: str = "random"  # one of GRAPH_MODELS
    edge_prob: float = 0.5
    symmetric: Optional[bool] = None
    margin: float = 0.1
    slack: float = 0.25
    max_iter: int = 100_000
    out: Optional[str] = None

    def __post_init__(self):
        self.n_range, self.d_range = tuple(self.n_range), tuple(self.d_range)
        if self.seed is None:
            raise MissingSeedError("a master seed is required (no wall-clock seeding)")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        for name in ("margin", "slack"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if self.graph not in GRAPH_MODELS:
            raise ValueError(f"graph must be one of {', '.join(GRAPH_MODELS)}, got {self.graph!r}")
        if not 0.0 <= self.edge_prob <= 1.0:
            raise ValueError(f"edge_prob must lie in [0, 1], got {self.edge_prob}")
        for name in ("n_range", "d_range"):
            bounds = getattr(self, name)
            if len(bounds) != 2 or not 2 <= bounds[0] <= bounds[1]:
                raise ValueError(f"{name} must be (lo, hi) with 2 <= lo <= hi, got {bounds}")
        for name in ("n", "d"):
            if getattr(self, name) is not None and getattr(self, name) < 2:
                raise ValueError(f"{name} must be >= 2, got {getattr(self, name)}")

    @staticmethod
    def from_json(path: Optional[str], **overrides) -> "ExperimentConfig":
        """The fields of the JSON file at path (none if path is None) under
        the overrides that are not None. A key that names no field is a
        ValueError naming every such key."""
        obj = {"seed": None}
        if path:
            with open(path) as fh:
                obj.update(json.load(fh))
        obj.update({k: v for k, v in overrides.items() if v is not None})
        unknown = sorted(set(obj) - {f.name for f in fields(ExperimentConfig)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return ExperimentConfig(**obj)


# one row of records.csv, in RECORD_FIELDS order; the field "class" is klass
TrialRecord = namedtuple("TrialRecord", [f.replace("class", "klass") for f in RECORD_FIELDS])


def _short_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def graph_hashes(adjacency: np.ndarray) -> list:
    """The hash of each graph of a (T, n, n) stack of adjacency matrices:
    of the bytes `DirectedGraph.to_json` writes, its edges' text taken from
    one table of the n^2 "[i, j]" items, in row-major order as argwhere
    lists them."""
    count, n, _ = adjacency.shape
    items = np.array([f"[{i}, {j}]" for i in range(1, n + 1) for j in range(1, n + 1)])
    head = f'{{"n": {n}, "edges": ['
    return [_short_hash((head + ", ".join(items[edges]) + "]}").encode())
            for edges in adjacency.reshape(count, -1)]


def matrix_hash(a: np.ndarray) -> str:
    return _short_hash(np.ascontiguousarray(a).tobytes())


def write_records_csv(path: str, records: list):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_FIELDS)
        for r in records:
            writer.writerow(r)


def write_summary_json(path: str, summary: dict):
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, default=str)


def _check_symmetry(cfg: ExperimentConfig, command: str, symmetric: bool):
    """A ValueError, in words the CLI prints, if the config sets a weight
    symmetry other than the one the command runs."""
    if cfg.symmetric not in (None, symmetric):
        raise ValueError(f"{command} runs {'' if symmetric else 'non-'}symmetric weight matrices, "
                         f"but the config sets \"symmetric\": {json.dumps(cfg.symmetric)}")


def _emit(out: Optional[str], records: Optional[list], summary: dict):
    """Write summary.json, and records.csv unless records is None, to the
    directory out (nothing if out is None)."""
    if out:
        os.makedirs(out, exist_ok=True)
        if records is not None:
            write_records_csv(os.path.join(out, "records.csv"), records)
        write_summary_json(os.path.join(out, "summary.json"), summary)


# --------------------------------------------------------------------------
# the trial pipeline: plan, group by d, run in lockstep, classify
# --------------------------------------------------------------------------

@dataclass
class _Trial:
    """One planned trial: its draws and, once run, its outcome. model is the
    graph model (one of GRAPH_MODELS), drawn symmetric or not by
    symmetric_graph; seed is the record's seed, derive_seed(master, t). error
    holds the exception of a failed draw or a ZeroDivisionError for a
    zero-norm row image; final is the limit configuration otherwise."""

    t: int
    n: int
    d: int
    symmetric: bool
    model: str
    symmetric_graph: bool = True
    seed: int = 0
    graph: Optional[DirectedGraph] = None
    weights: Optional[WeightMatrix] = None
    start: Optional[np.ndarray] = None
    error: Optional[Exception] = None
    final: Optional[Configuration] = None
    iters: int = 0
    residual: float = float("nan")
    radius: float = float("nan")
    min_potential_step: Optional[float] = None
    status: Optional[str] = None
    rotation: Optional[dynamics.Rotation] = None
    turn: Optional[dynamics.Turn] = None


def _plan(cfg: ExperimentConfig, trials: list, streams=(1, 2, 3)) -> list:
    """Draw every trial's graph, weight matrix and start, and return the
    trials. Trial t draws each on its own generator, seeded as
    `np.random.default_rng(derive_seed(cfg.seed, t, stream))` for the three
    streams would be; all seeds and state words come from one hash pass.
    The draws of one stage are assembled for all trials of a shape at once:
    the graphs per (n, model), the weights per n, the starts per (n, d). A
    stage that fails for a trial leaves the later ones undrawn."""
    ts = np.array([tr.t for tr in trials])
    keys = np.column_stack([np.repeat(ts, len(streams)), np.tile(streams, len(ts))])
    words = generator_words(derive_seeds(cfg.seed, keys)).reshape(len(ts), len(streams), 4)
    for trial, seed in zip(trials, derive_seeds(cfg.seed, ts[:, None])):
        trial.seed = int(seed)
    planned = list(zip(trials, words))  # the state words live while the trials are drawn
    _draw_stage(planned, lambda tr: (tr.n, tr.model, tr.symmetric_graph),
                lambda part: _draw_graphs(cfg, part))
    _draw_stage(planned, lambda tr: tr.n, lambda part: _draw_weights(cfg, part))
    _draw_stage(planned, lambda tr: (tr.n, tr.d), _draw_starts)
    return trials


def _draw_stage(planned: list, key, draw):
    """Group the (trial, words) pairs of the trials not failed yet by
    key(trial) and draw each group at once; if that raises, draw each
    member alone and record the exception of each that fails on it, so
    that one trial's failed draw fails no other trial."""
    groups: dict = {}
    for trial, words in planned:
        if trial.error is None:
            groups.setdefault(key(trial), []).append((trial, words))
    for members in groups.values():
        try:
            draw(members)
        except Exception:
            for member in members:
                try:
                    draw([member])
                except Exception as exc:  # recorded by the command, never dropped
                    member[0].error = exc


def _draw_graphs(cfg: ExperimentConfig, members: list):
    """The graphs of (trial, words) pairs of one n, model and graph symmetry."""
    first = members[0][0]
    if first.model == "complete":
        graphs = [complete_graph(first.n)] * len(members)
    elif first.model == "ring":
        graphs = [ring_graph(first.n)] * len(members)
    elif first.model == "er":
        if not first.symmetric_graph:
            raise ValueError("the er graph model is symmetric-only")
        graphs = [random_connected_er(first.n, cfg.edge_prob, generator(words[0]))
                  for _, words in members]
    else:
        adj = backbone_graphs((generator(words[0]) for _, words in members), first.n,
                              cfg.edge_prob, first.symmetric_graph)
        graphs = [DirectedGraph._unchecked(a) for a in adj]
    for (trial, _), g in zip(members, graphs):
        trial.graph = g


def _draw_weights(cfg: ExperimentConfig, members: list):
    """The weight matrices of (trial, words) pairs of one n: `sample_sdd`
    on each trial's graph."""
    entries = sdd_entries(np.array([tr.graph.adjacency for tr, _ in members]), cfg.margin,
                          [tr.symmetric for tr, _ in members],
                          (generator(words[1]) for _, words in members))
    for (trial, _), a in zip(members, entries):
        trial.weights = WeightMatrix._unchecked(a, trial.graph)


def _draw_starts(members: list):
    """The start rows of (trial, words) pairs of one (n, d): the rows of
    `random_configuration`."""
    first = members[0][0]
    rows = start_rows((generator(words[2]) for _, words in members), first.n, first.d)
    for (trial, _), r in zip(members, rows):
        trial.start = r


def _run_group(cfg: ExperimentConfig, members: list, descent: bool):
    """Run trials of one d as one dynamics.run_batch call, agents padded to
    the largest n (dynamics.pad_agents), with the weight matrix itself or
    (descent) its descent matrix, and store each outcome on its trial, pad
    rows stripped and the rows kept as the kernel left them. Without descent,
    symmetric trials keep their least potential step, and each trial that
    reached a fixed point its spectral radius there, taken on the padded
    stack (`stability.spectral_radius` with agents), SPECTRAL_STACK trials
    per call."""
    if descent:
        mats = [descent_matrix(tr.weights, cfg.slack).entries for tr in members]
    else:
        mats = [tr.weights.entries for tr in members]
    entries, starts, agents = dynamics.pad_agents(mats, [tr.start for tr in members])
    out = dynamics.run_batch(entries, starts, max_iter=cfg.max_iter, potential=not descent,
                             agents=agents)
    for pos, trial in enumerate(members):
        trial.iters, trial.residual = int(out.iters[pos]), float(out.residual[pos])
        trial.status, trial.rotation = str(out.status[pos]), out.rotations.get(pos)
        trial.turn = out.turns.get(pos)
        rows = out.rows[pos, :trial.n]
        if trial.status == dynamics.ZERO_NORM:
            try:
                dynamics.iterate(mats[pos], Configuration._unchecked(rows))
            except ZeroDivisionError as exc:  # names the agent
                trial.error = exc
                continue
        trial.final = Configuration._unchecked(rows)
        if not descent and trial.symmetric and out.min_potential_step[pos] < np.inf:
            trial.min_potential_step = float(out.min_potential_step[pos])
    if not descent:
        fixed = np.flatnonzero(out.status == dynamics.FIXED_POINT)
        for k in range(0, fixed.size, SPECTRAL_STACK):
            part = fixed[k:k + SPECTRAL_STACK]
            rho = stability.spectral_radius(entries[part], out.rows[part], agents[part])
            for pos, r in zip(part, rho):
                members[pos].radius = float(r)


def _run_trials(cfg: ExperimentConfig, trials: list, descent: bool):
    """Run the planned trials, one `_run_group` per d, and record them in
    trial order. A record names a limit only if its trial reached a fixed
    point, and is "nonconverged" otherwise. A descent record carries the
    residuals under A and under the descent matrix; a plain record carries
    the residual and the spectral radius at the limit (NaN without one). An
    error record keeps the hashes of every draw that succeeded.

    Returns (records, error entries, summary fields of the run).
    """
    groups: dict = {}
    for trial in trials:
        if trial.error is None:
            groups.setdefault(trial.d, []).append(trial)
    for members in groups.values():
        _run_group(cfg, members, descent)
    graph_of = {}
    for part in _stacks([tr for tr in trials if tr.graph is not None]):
        graph_of.update(zip((tr.t for tr in part),
                            graph_hashes(np.array([tr.graph.adjacency for tr in part]))))
    records, errors, nan = [], [], float("nan")
    for trial in trials:
        tseed = trial.seed
        hashes = (graph_of.get(trial.t, ""),
                  matrix_hash(trial.weights.entries) if trial.weights else "")
        if trial.error is not None:
            errors.append({"trial": trial.t, "error": str(trial.error)})
            records.append(TrialRecord(trial.t, tseed, trial.n, trial.d, *hashes, "error",
                                       0, trial.iters, nan, nan, nan))
            continue
        cls = classify_configuration(trial.final, LIMIT_RANK_TOL)
        kind = cls.kind if trial.status == dynamics.FIXED_POINT else "nonconverged"
        if descent:
            values = (dynamics.fixed_point_residual(trial.weights, trial.final),
                      trial.residual, nan)
        else:
            values = (trial.residual, nan, trial.radius)
        records.append(TrialRecord(trial.t, tseed, trial.n, trial.d, *hashes, kind,
                                   cls.rank, trial.iters, *values))
    ran = [tr for tr in trials if tr.status is not None]
    statuses = [tr.status for tr in ran]
    return records, errors, {
        "lockstep_groups": len(groups),
        "iteration_histogram": _iteration_histogram([tr.iters for tr in ran], cfg.max_iter),
        "status_counts": {s: statuses.count(s) for s in dynamics.STATUSES}}


SPECTRAL_STACK = 64  # trials per spectral_radius call: caps its stacks at a few MB


def _stacks(trials: list):
    """The trials cut into stacks of one (n, d) and at most SPECTRAL_STACK
    members each, in trial order within a shape."""
    shapes: dict = {}
    for trial in trials:
        shapes.setdefault((trial.n, trial.d), []).append(trial)
    for members in shapes.values():
        for k in range(0, len(members), SPECTRAL_STACK):
            yield members[k:k + SPECTRAL_STACK]


def _iteration_histogram(iters: list, max_iter: int) -> dict:
    """Trial counts by decade of the iteration count (0-9, 10-99, ...), the
    last decade cut at max_iter, which has a bin of its own."""
    uppers = [10 ** k for k in range(1, len(str(max_iter))) if 10 ** k < max_iter]
    uppers += [max_iter, max_iter + 1]
    counts = np.bincount(np.searchsorted(uppers, iters, side="right"),
                         minlength=len(uppers))
    return {(f"{lo}-{hi - 1}" if hi - 1 > lo else f"{lo}"): int(c)
            for lo, hi, c in zip([0] + uppers[:-1], uppers, counts)}


# --------------------------------------------------------------------------
# sweep: the plain iteration from random starts always reaches consensus
# --------------------------------------------------------------------------

def cmd_consensus_sweep(cfg: ExperimentConfig):
    """Random (graph, SDD weight matrix, start) per trial; run the iteration
    and classify the limit. For symmetric trials the kernel tracks the
    smallest per-step change of the potential (it should never decrease).
    A trial that reaches no fixed point is nonconverged, never a limit.

    Graph topologies are symmetric even when the weights are not: directed
    circulation-dominated topologies (e.g. a pure directed cycle) admit
    attracting rotating-wave orbits on the circle that never reach consensus,
    so they are probed separately (theorem2 command) rather than swept here.

    The paper's consensus result needs sphere dimension >= 2, that is d >= 3.
    On the circle (d = 2) a symmetric graph that is a bare cycle has stable
    twisted fixed points, which a rare trial reaches; the summary counts the
    non-consensus trials per d.
    """
    rng = np.random.default_rng(derive_seed(cfg.seed, 0xABCD))
    trials = []
    for t in range(cfg.trials):
        n = cfg.n or int(rng.integers(cfg.n_range[0], cfg.n_range[1] + 1))
        d = cfg.d or int(rng.integers(cfg.d_range[0], cfg.d_range[1] + 1))
        symmetric = bool(rng.integers(0, 2)) if cfg.symmetric is None else cfg.symmetric
        trials.append(_Trial(t, n, d, symmetric, cfg.graph))
    records, errors, run_fields = _run_trials(cfg, _plan(cfg, trials), descent=False)
    min_potential_delta = min((tr.min_potential_step for tr in trials
                               if tr.min_potential_step is not None), default=None)
    nonconsensus_by_d: dict = {}
    for r in records:
        if r.klass not in ("error", "nonconverged"):
            nonconsensus_by_d[r.d] = nonconsensus_by_d.get(r.d, 0) + (r.klass != "consensus")
    summary = {
        "experiment": "consensus_sweep",
        "seed": cfg.seed,
        "trials": cfg.trials,
        "consensus_fraction": sum(r.klass == "consensus" for r in records) / cfg.trials,
        "nonconsensus_trials": sum(nonconsensus_by_d.values()),
        "nonconverged": sum(r.klass == "nonconverged" for r in records),
        "min_potential_delta": min_potential_delta,
        "errors": errors,
        "graph_model": cfg.graph,
        "margin": cfg.margin,
        "nonconsensus_by_d": {str(d): k for d, k in sorted(nonconsensus_by_d.items())},
        "d2_bare_cycle_trials": sum(tr.d == 2 and tr.graph is not None
                                    and bool((tr.graph.adjacency.sum(axis=1) == 2).all())
                                    for tr in trials),
        **run_fields,
    }
    _emit(cfg.out, records, summary)
    return records, summary


# --------------------------------------------------------------------------
# rank-table: descent mode over symmetric matrices, limit rank distribution
# --------------------------------------------------------------------------

def cmd_rank_table(cfg: ExperimentConfig):
    """Symmetric SDD matrices, descent iteration from random starts; tabulate
    the numerical rank of the non-consensus limits for fixed (n, d).

    Only converged trajectories count as limits; a trial that reaches
    max_iter is recorded as non-converged and left out of the table."""
    _check_symmetry(cfg, "rank-table", True)
    if cfg.n is None or cfg.d is None:
        raise ValueError("rank-table requires explicit n and d")
    trials = _plan(cfg, [_Trial(t, cfg.n, cfg.d, True, cfg.graph) for t in range(cfg.trials)])
    records, errors, run_fields = _run_trials(cfg, trials, descent=True)
    rank_counts: dict = {}
    for r in records:
        if r.klass not in ("nonconverged", "error"):
            rank_counts[r.rank] = rank_counts.get(r.rank, 0) + 1
    total = sum(rank_counts.values())
    summary = {
        "experiment": "rank_table",
        "seed": cfg.seed,
        "n": cfg.n, "d": cfg.d,
        "trials": cfg.trials,
        "rank_counts": {str(k): v for k, v in sorted(rank_counts.items())},
        "rank_frequencies": {str(k): v / total for k, v in sorted(rank_counts.items())},
        "nonconverged": sum(r.klass == "nonconverged" for r in records),
        "errors": errors,
        "graph_model": cfg.graph,
        "edge_prob": cfg.edge_prob,
        "margin": cfg.margin,
        "slack": cfg.slack,
        **run_fields,
    }
    _emit(cfg.out, records, summary)
    return records, summary


# --------------------------------------------------------------------------
# theorem2: descent mode over non-symmetric matrices never leaves rank one
# --------------------------------------------------------------------------

def _theorem2_trials(cfg: ExperimentConfig) -> list:
    """The theorem2 probe's trials, not yet planned: d = 2 on strongly
    connected graphs of cfg.graph's model, d >= 3 on complete graphs."""
    rng = np.random.default_rng(derive_seed(cfg.seed, 0xF00D))
    trials = []
    for t in range(cfg.trials):
        d = cfg.d or int(rng.choice([2, 3, 4]))
        n = cfg.n or int(rng.integers(cfg.n_range[0], cfg.n_range[1] + 1))
        trials.append(_Trial(t, n, d, False, "complete" if d >= 3 else cfg.graph,
                             symmetric_graph=False))
    return trials


def cmd_theorem2_probe(cfg: ExperimentConfig):
    """Descent mode with non-symmetric SDD matrices: d=2 over strongly
    connected graphs, d>=3 over complete graphs. Counts converged limits of
    rank >= 2 (expected zero) and stores any counterexample verbatim.

    Without symmetry the descent iteration has no monotone potential, so many
    trajectories cycle instead of converging; those produce no fixed point and
    are recorded as non-converged rather than counted against the probe. Most
    of them turn rigidly and stop at a certified relative equilibrium, which
    the summary lists with its rotation angle, rank and largest modulus off
    the orbit. At d = 2 most of the others stop once their shape has made a
    certified full turn on an attracting circle (quasi-periodic), which the
    summary lists with its turn lag, return distance and exponents; the rest
    run to max_iter.
    """
    _check_symmetry(cfg, "theorem2", False)
    trials = _theorem2_trials(cfg)
    records, errors, run_fields = _run_trials(cfg, _plan(cfg, trials), descent=True)
    counterexamples = [{
        "trial": tr.t, "matrix": tr.weights.entries.tolist(),
        "graph": json.loads(tr.graph.to_json()),
        "limit": json.loads(tr.final.to_json()),
    } for tr, r in zip(trials, records) if r.klass == "higher-rank"]
    summary = {
        "experiment": "theorem2_probe",
        "seed": cfg.seed,
        "trials": cfg.trials,
        "rank_ge2_count": len(counterexamples),
        "nonconverged": sum(r.klass == "nonconverged" for r in records),
        "counterexamples": counterexamples,
        "errors": errors,
        **run_fields,
        "relative_equilibria": [{"trial": tr.t, **tr.rotation._asdict()}
                                for tr in trials if tr.rotation is not None],
        "quasi_periodic": [{"trial": tr.t, **tr.turn._asdict()}
                           for tr in trials if tr.turn is not None],
    }
    _emit(cfg.out, records, summary)
    return records, summary


# --------------------------------------------------------------------------
# pentagon: the classic neutral non-consensus fixed point on the circle
# --------------------------------------------------------------------------

def pentagon_weight_matrix() -> WeightMatrix:
    """Circulant 5x5 matrix: diagonal 3, ring neighbors 1."""
    g = ring_graph(5)
    return WeightMatrix(3.0 * np.eye(5) + adjacency_matrix(g), g)


def pentagon_configuration():
    angles = 2.0 * np.pi * np.arange(5) / 5.0
    return Configuration(np.column_stack([np.cos(angles), np.sin(angles)]))


def cmd_pentagon_demo(out: Optional[str] = None) -> dict:
    """Verify the regular pentagon is a neutral, rank-two fixed point."""
    a = pentagon_weight_matrix()
    c = pentagon_configuration()
    lin = stability._Linearization(a, c)
    cls = classify_configuration(c)
    rho = lin.spectral_radius()
    gram = c.rows @ c.rows.T
    neighbor_dots = [float(gram[i, (i + 1) % 5]) for i in range(5)]
    report = {
        "experiment": "pentagon",
        "residual": lin.residual(),
        "classification": cls.kind,
        "rank": cls.rank,
        "spectral_radius": rho,
        "neighbor_dots": neighbor_dots,
        "expected_neighbor_dot": float(np.cos(2.0 * np.pi / 5.0)),
        "neutral": stability._neutral(rho),
    }
    _emit(out, None, report)
    return report


# --------------------------------------------------------------------------
# audit: instability certificates at descent-found fixed points (d >= 3)
# --------------------------------------------------------------------------

class DescentPoints(list):
    """(weight matrix, limit configuration, trial index) triples, with
    `counts`: the points requested, the trials run, the trials whose
    iteration hit a zero-norm row image, and the trials run by status."""

    counts: dict


def collect_descent_fixed_points(cfg: ExperimentConfig, count: int,
                                 require_rank_ge: int = 2,
                                 a_residual_tol: float = A_RESIDUAL_TOL) -> DescentPoints:
    """Run descent trials until `count` non-consensus limits that are also
    fixed points of the plain weight iteration have been found, or the trial
    budget max(50 * count, 1000) is spent; a shortfall is warned of with a
    RuntimeWarning. Trials run in lockstep chunks; the first `count` hits in
    trial order are kept, and the trials after the last hit do not count.
    A chunk holds the missing hits over the hit rate seen so far (taken as 1
    before the first chunk), so it runs few trials past the last hit kept.
    The search descends symmetric weight matrices only: a config that asks
    for non-symmetric ones is a ValueError."""
    _check_symmetry(cfg, "the descent search", True)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    out = []
    t = 0
    statuses = dict.fromkeys(dynamics.STATUSES, 0)
    limit = max(50 * count, 1000)
    while len(out) < count and t < limit:
        size = -(-(count - len(out)) * max(t, 1) // max(len(out), 1))  # ceiling
        chunk = _plan(cfg, [_Trial(s, cfg.n, cfg.d, True, cfg.graph)
                            for s in range(t, min(t + size, limit))])
        records, _, _ = _run_trials(cfg, chunk, descent=True)
        for trial, r in zip(chunk, records):
            t = trial.t + 1
            if trial.error is not None and not isinstance(trial.error, ZeroDivisionError):
                raise trial.error
            statuses[trial.status] += 1
            if (trial.status == dynamics.FIXED_POINT and r.klass != "consensus"
                    and r.rank >= require_rank_ge and r.residual_A <= a_residual_tol):
                out.append((trial.weights, trial.final, trial.t))
                if len(out) == count:
                    break
    if len(out) < count:
        warnings.warn(f"found {len(out)} of {count} descent fixed points in "
                      f"{t} trials ({statuses[dynamics.ZERO_NORM]} zero-norm)", RuntimeWarning)
    points = DescentPoints(out)
    points.counts = {"requested": count, "trials_run": t,
                     "zero_norm_trials": statuses[dynamics.ZERO_NORM], "status_counts": statuses}
    return points


def cmd_stability_audit(cfg: ExperimentConfig, count: int = 100,
                        det_trials: int = 1000):
    """Certify instability of descent-found non-consensus fixed points for
    d >= 3, check the collapsed-trace identity at each, run the perturbation
    escape test, and report the determinant floor for matrices satisfying the
    sqrt(2) row condition. The perturbed trials, one per point on its weight
    matrix, run through the trial pipeline (`_run_trials`, plain iteration);
    an escape is a record classed consensus, so a trial that stops short of
    a fixed point or hits a zero-norm row image never counts as one."""
    if cfg.d is None or cfg.d < 3:
        raise ValueError("stability audit requires d >= 3")
    if cfg.n is None:
        raise ValueError("stability audit requires explicit n")
    points = collect_descent_fixed_points(cfg, count, require_rank_ge=2)
    details, escape_trials = [], []
    rng = np.random.default_rng(derive_seed(cfg.seed, 0xE5C))
    for a, c, t in points:
        cert = stability.instability_certificate(a, c)
        trace = stability.trace_formula_check(a, c)
        # perturb along the tangent space, to resume the plain iteration
        noise = rng.standard_normal(c.n * (c.d - 1))
        noise *= AUDIT_PERTURBATION / np.linalg.norm(noise)
        rows = (c.vector + tangent_basis(c).block_diagonal() @ noise).reshape(c.n, c.d)
        escape_trials.append(_Trial(t, c.n, c.d, True, cfg.graph, graph=a.graph, weights=a,
                                    start=Configuration(rows).rows))
        details.append({"trial": t, "label": cert.label,
                        "spectral_radius": cert.spectral_radius,
                        "certificate_eigenvalue": cert.certificate_eigenvalue,
                        "trace_match": trace.match})
    records, _, _ = _run_trials(cfg, escape_trials, descent=False)
    escapes = sum(r.klass == "consensus" for r in records)
    # determinant floor for sqrt(2)-condition matrices, one det call per stack of `_stacks`
    draws = _plan(replace(cfg, margin=0.45), [_Trial(k, cfg.n, cfg.d, True, cfg.graph)
                                              for k in range(det_trials)], streams=(11, 12, 13))
    for trial in draws:
        if trial.error is not None:
            raise trial.error
    min_abs_det = np.inf
    for part in _stacks(draws):
        red = stability.reduced_matrix(np.stack([tr.weights.entries for tr in part]),
                                       np.stack([tr.start for tr in part]))
        min_abs_det = min(min_abs_det, float(np.abs(np.linalg.det(red)).min()))
    summary = {
        "experiment": "stability_audit",
        "seed": cfg.seed,
        "n": cfg.n, "d": cfg.d,
        "fixed_points": len(points),
        **points.counts,
        "unstable_certified": sum(e["label"] == "unstable-certified" for e in details),
        "trace_matches": sum(e["trace_match"] for e in details),
        "escapes_to_consensus": escapes,
        "min_abs_det_sqrt2": min_abs_det,
        "details": details,
    }
    _emit(cfg.out, None, summary)
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
    points = collect_descent_fixed_points(replace(cfg, graph="complete"), count,
                                          require_rank_ge=1)
    reports = []
    for a, c, t in points:
        sys = build_fixed_point_system(a, c)
        r_nonsym = matrix_rank(assemble_Jg(sys, symmetric=False).full)
        entry = {"trial": t, "m": sys.m, "nonsym_rank": r_nonsym,
                 "nonsym_full": r_nonsym == sys.n * sys.m}
        if sys.m >= 2:
            rep = symmetric_rank_deficiency_check(sys)
            entry.update({"sym_rank": rep.rank, "sym_bound": rep.bound,
                          "sym_deficient": rep.satisfied, "null_residual": rep.null_residual})
        reports.append(entry)
    summary = {
        "experiment": "jg_rank",
        "seed": cfg.seed,
        "n": cfg.n, "d": cfg.d,
        "fixed_points": len(points),
        **points.counts,
        "nonsym_full_rank": sum(e["nonsym_full"] for e in reports),
        "rank_ge2_points": sum("sym_rank" in e for e in reports),
        "sym_deficiency_satisfied": sum(e.get("sym_deficient", False) for e in reports),
        "max_null_residual": max((e.get("null_residual", 0.0) for e in reports), default=0.0),
        "reports": reports,
    }
    _emit(cfg.out, None, summary)
    return summary
