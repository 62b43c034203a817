"""Command-line entry point.

    betadens run <config> [--seed S] [--out DIR] [--trials N] [--threads T]
    betadens table <config> [same overrides]     # sweep + print the CSV
    betadens coeffs [--k-max K] [--quad-nodes Q] [--out DIR]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ExperimentConfig, load_config
from .errors import BetadensError
from .runner import run_experiment


def _add_overrides(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("config", help="path to a key=value experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override master_seed")
    parser.add_argument("--out", default=None, help="override output directory")
    parser.add_argument("--trials", type=int, default=None, help="override trial count")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker count (speed only, never results)")


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> None:
    if args.seed is not None:
        config.master_seed = args.seed
    if args.trials is not None:
        config.trials = args.trials
    if args.threads is not None:
        config.threads = args.threads
    if args.out is not None:
        config.out_dir = args.out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="betadens",
                                     description="density estimation lab for "
                                                 "beta-dependent sequences")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run any experiment config")
    _add_overrides(run_p)

    table_p = sub.add_parser("table", help="run a risk sweep and print the table")
    _add_overrides(table_p)

    coeffs_p = sub.add_parser("coeffs", help="dependence coefficient report")
    defaults = ExperimentConfig(experiment="coefficient-report")
    coeffs_p.add_argument("--k-max", type=int, default=defaults.k_max)
    coeffs_p.add_argument("--quad-nodes", type=int, default=defaults.quad_nodes)
    coeffs_p.add_argument("--out", default=defaults.out_dir)

    args = parser.parse_args(argv)
    try:
        if args.command == "coeffs":
            config = ExperimentConfig(experiment="coefficient-report",
                                      k_max=args.k_max, quad_nodes=args.quad_nodes,
                                      out_dir=args.out)
            files = run_experiment(config)
        else:
            config = load_config(args.config)
            _apply_overrides(config, args)
            if args.command == "table" and config.experiment not in (
                    "risk-table-sweep", "risk-slope-plot"):
                parser.error("'table' needs a risk-table-sweep or risk-slope-plot config")
            files = run_experiment(config)
            if args.command == "table":
                sys.stdout.write(Path(files[0]).read_text(encoding="ascii"))
        for path in files:
            print(f"wrote {path}", file=sys.stderr)
        return 0
    except (BetadensError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
