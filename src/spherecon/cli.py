"""Command-line interface for the experiment harness.

Subcommands: sweep, rank-table, theorem2, pentagon, audit, jg-rank.
Flags override config-file fields; --seed is mandatory for experiment
commands. Outputs records.csv and summary.json under --out.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import (GRAPH_MODELS, ExperimentConfig, MissingSeedError,
                          cmd_consensus_sweep, cmd_jg_rank, cmd_pentagon_demo, cmd_rank_table,
                          cmd_stability_audit, cmd_theorem2_probe)


FLAGS = {"config": {"help": "JSON config file; flags override its fields"},
         "seed": {"type": int, "help": "master seed (required)"},
         "n": {"type": int}, "d": {"type": int}, "margin": {"type": float},
         "trials": {"type": int}, "slack": {"type": float}, "edge_prob": {"type": float},
         "graph": {"choices": GRAPH_MODELS},
         "symmetric": {"action": "store_true", "default": None},
         "out": {"help": "output directory for records.csv / summary.json"}}
# per subcommand: its help, the flags it reads beyond config, seed, n, d,
# margin and out, and its run, which returns the summary
COMMANDS = {
    "sweep": ("random-trial consensus sweep of the plain iteration",
              ("trials", "edge_prob", "graph", "symmetric"),
              lambda cfg, args: cmd_consensus_sweep(cfg)[1]),
    "rank-table": ("rank distribution of descent-mode limits (symmetric)",
                   ("trials", "slack", "edge_prob", "graph"),
                   lambda cfg, args: cmd_rank_table(cfg)[1]),
    "theorem2": ("non-symmetric descent probe: limits stay rank one",
                 ("trials", "slack", "edge_prob", "graph"),
                 lambda cfg, args: cmd_theorem2_probe(cfg)[1]),
    "audit": ("instability certificates at d>=3 fixed points",
              ("slack", "edge_prob", "graph"),
              lambda cfg, args: cmd_stability_audit(cfg, count=args.count)),
    "jg-rank": ("parametric Jacobian rank checks at fixed points", ("slack",),
                lambda cfg, args: cmd_jg_rank(cfg, count=args.count)),
}


def _build_config(args) -> ExperimentConfig:
    try:
        return ExperimentConfig.from_json(
            args.config, **{k: getattr(args, k, None) for k in FLAGS if k != "config"})
    except MissingSeedError:
        raise SystemExit("--seed is required (directly or via --config)") from None
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spherecon",
        description="Sphere-consensus iteration experiments with seeded, "
                    "reproducible outputs")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, options, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in ("config", "seed", "n", "d", "margin", *options, "out"):
            p.add_argument("--" + flag.replace("_", "-"), dest=flag, **FLAGS[flag])
    sub.choices["audit"].add_argument("--count", type=int, default=100)
    sub.choices["jg-rank"].add_argument("--count", type=int, default=50)
    p_pent = sub.add_parser("pentagon", help="pentagon fixed-point demo")
    p_pent.add_argument("--out")

    args = parser.parse_args(argv)

    if args.command == "pentagon":
        report = cmd_pentagon_demo(out=args.out)
        print(json.dumps(report, indent=2))
        return 0

    cfg = _build_config(args)
    try:  # a command rejects what it cannot run with a ValueError naming it
        summary = COMMANDS[args.command][2](cfg, args)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None

    slim = {k: v for k, v in summary.items() if not isinstance(v, list)}
    print(json.dumps(slim, indent=2, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
