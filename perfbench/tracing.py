"""Per-layer tracing of the spherecon package, installed from outside.

`Tracer.install` replaces each traced public function by a wrapper in every
spherecon module namespace that holds it, including names that modules import
directly (`experiments` imports the samplers and the fixed-point functions by
name, `stability` imports `tangent_basis` and `fixed_point_residual`). The
wrappers record spans in memory; nothing is written until `write_spans`.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# module -> public functions traced in it
TRACED = {
    "dynamics": ["run", "run_batch", "fixed_point_residual"],
    "stability": ["reduced_matrix", "spectral_radius", "projected_jacobian",
                  "certificate_matrix", "instability_certificate",
                  "trace_formula_check", "determinant_nonzero_check",
                  "differential_report"],
    "fixedpoint_rank": ["build_fixed_point_system", "assemble_Jg",
                        "symmetric_rank_deficiency_check", "skew_null_vectors",
                        "matrix_rank", "duplication_matrix"],
    "state": ["random_configuration", "classify_configuration", "tangent_basis"],
    "weights": ["sample_sdd", "descent_matrix"],
    "graph": ["random_symmetric_connected", "random_strongly_connected"],
    "cli": ["main"],
}
# experiment commands the workloads run (bound by name in cli) and the
# writers of their outputs
COMMANDS = ["cmd_consensus_sweep", "cmd_theorem2_probe"]
EMITTERS = ["write_records_csv", "write_summary_json"]


def _steps_of_run(bound, result):
    """(agent-steps, agent-steps of trials that ended at max_iter, lockstep
    steps) of one `dynamics.run` call, which takes iterations + 1 steps of n
    agents."""
    steps = (result.iterations + 1) * result.final.n
    at_max = result.iterations >= bound.arguments["max_iter"] and not result.converged
    return steps, steps if at_max else 0, 1


def _steps_of_run_batch(bound, result):
    rows, iters, residual, _ = result
    n = rows.shape[1]
    per_trial = (np.asarray(iters) + 1) * n
    at_max = (np.asarray(iters) >= bound.arguments["max_iter"]) & (
        np.asarray(residual) > bound.arguments["fp_tol"])
    lockstep = int(np.max(iters)) + 1 if len(iters) else 0
    return int(per_trial.sum()), int(per_trial[at_max].sum()), lockstep


STEP_COUNTERS = {"dynamics.run": _steps_of_run,
                 "dynamics.run_batch": _steps_of_run_batch}


class Tracer:
    """Records one span per call of a traced function.

    A span is (id, parent id, name, size tag, start, end). The parent is the
    innermost traced call still open when the span starts, so a layer's self
    time is its span minus its direct children.
    """

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.steps = defaultdict(lambda: [0, 0, 0])  # agent, at max_iter, lockstep
        self.records_bytes = 0
        self.tag = ""
        self._stack = []
        self._patches = []  # (namespace, attribute, original)

    # -- installation -----------------------------------------------------
    def _namespaces(self):
        prefix = self.package.__name__
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == prefix or name.startswith(prefix + "."))]

    def _patch_everywhere(self, original, wrapper):
        for module in self._namespaces():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {name: sys.modules[f"{self.package.__name__}.{name}"]
                for name in list(TRACED) + ["experiments"]}
        for mod_name, funcs in TRACED.items():
            for fn in funcs:
                original = getattr(mods[mod_name], fn)
                self._patch_everywhere(original, self._wrap(f"{mod_name}.{fn}", original))
        for fn in COMMANDS:
            original = getattr(mods["experiments"], fn)
            self._patch_everywhere(original, self._wrap(f"experiments.{fn}", original))
        for fn in EMITTERS:
            original = getattr(mods["experiments"], fn)
            self._patch_everywhere(original, self._wrap("experiments.emit", original))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def _wrap(self, name, original):
        counter = STEP_COUNTERS.get(name)
        signature = inspect.signature(original) if counter else None
        writes_records = original.__name__ == "write_records_csv"
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            spans.append(None)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, parent, name, self.tag, start, end)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                agent, at_max, lockstep = counter(bound, result)
                acc = self.steps[name]
                acc[0] += agent
                acc[1] += at_max
                acc[2] += lockstep
            if writes_records:
                self.records_bytes += os.path.getsize(args[0])
            return result

        traced.__wrapped__ = original
        return traced

    # -- reporting --------------------------------------------------------
    def self_times(self):
        """Per span: (name, tag, duration, self time)."""
        child_time = defaultdict(float)
        for span_id, parent, name, tag, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return [(name, tag, end - start, end - start - child_time[span_id])
                for span_id, parent, name, tag, start, end in self.spans]

    def layer_metrics(self):
        """Every per-layer figure this tracer can give, keyed by metric name."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        sized_calls = defaultdict(int)
        sized_s = defaultdict(float)
        for name, tag, _, own in self.self_times():
            calls[name] += 1
            self_s[name] += own
            if tag:
                sized_calls[(name, tag)] += 1
                sized_s[(name, tag)] += own
        out = {}
        names = [f"{m}.{fn}" for m, fns in TRACED.items() for fn in fns]
        for name in names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.us_per_call"] = 1e6 * self_s[name] / calls[name] if calls[name] else 0.0
        for (name, tag), count in sized_calls.items():
            out[f"{name}.us_per_call.{tag}"] = 1e6 * sized_s[(name, tag)] / count
        out["experiments.self_s"] = sum(
            v for k, v in self_s.items() if k.startswith("experiments.cmd_"))
        out["experiments.emit_s"] = self_s["experiments.emit"]
        out["experiments.records_bytes"] = self.records_bytes
        total_agent = total_max = 0
        for name in STEP_COUNTERS:
            agent, at_max, lockstep = self.steps[name]
            total_agent += agent
            total_max += at_max
            out[f"{name}.agent_steps"] = agent
            out[f"{name}.ns_per_agent_step"] = 1e9 * self_s[name] / agent if agent else 0.0
            if name == "dynamics.run_batch":
                out[f"{name}.us_per_lockstep_step"] = (
                    1e6 * self_s[name] / lockstep if lockstep else 0.0)
        out["dynamics.maxiter_step_share"] = total_max / total_agent if total_agent else 0.0
        return out

    def write_spans(self, path):
        """One JSON line per span: id, parent, name, size tag, start and
        duration in microseconds from the first span."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as fh:
            for span_id, parent, name, tag, start, end in self.spans:
                fh.write(json.dumps([span_id, parent, name, tag,
                                     round(1e6 * (start - t0), 3),
                                     round(1e6 * (end - start), 3)]) + "\n")
