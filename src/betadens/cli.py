"""Command-line entry point.

    betadens run <config> [--seed S] [--trials N] [--threads T] [--out DIR]
    betadens table <config> [same flags]     # a sweep config; prints its risk table

--seed, --trials and --threads set the config keys master_seed, trials and
threads, and meet every check that a key in the file meets, including that
the key belongs to the config's experiment.  --out is the output directory
(default: out), not a config key.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_config
from .errors import BetadensError, ConfigError
from .runner import run_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="betadens",
                                     description="density estimation lab for "
                                                 "beta-dependent sequences")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, about in (("run", "run any experiment config"),
                           ("table", "run a risk sweep and print the table")):
        # a flag that is not given leaves no entry in the parsed namespace
        p = sub.add_parser(command, help=about, argument_default=argparse.SUPPRESS)
        p.add_argument("config", help="path to a key=value experiment config")
        # the dest of each of these flags is the config key it sets
        p.add_argument("--seed", dest="master_seed", metavar="S", help="set master_seed")
        p.add_argument("--trials", metavar="N", help="set trials")
        p.add_argument("--threads", metavar="T",
                       help="set threads, the worker count (speed only, never results)")
        p.add_argument("--out", dest="out_dir", metavar="DIR",
                       help="output directory (default: out)")

    overrides = vars(parser.parse_args(argv))
    command, config_path = overrides.pop("command"), overrides.pop("config")
    out = {"out_dir": overrides.pop("out_dir")} if "out_dir" in overrides else {}
    try:
        config = load_config(config_path, overrides)
        if command == "table" and config.n_grid is None:
            raise ConfigError(f"'table' needs a config with the key 'n_grid', and "
                              f"experiment {config.experiment!r} has none")
        files = run_experiment(config, **out)
        if command == "table":
            sys.stdout.write(Path(files[0]).read_text(encoding="ascii"))
        for path in files:
            print(f"wrote {path}", file=sys.stderr)
        return 0
    except (BetadensError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
