"""Command-line entry point.

    macrolab <experiment> [--dim D] [--dims DA DB] [--m M] [--trials T]
             [--seed S] [--n-max N] [--epsilon E] [--out PATH] [--summary]

A setting whose flag is not given takes its ExperimentConfig default; a flag
the experiment does not read (harness.EXPERIMENTS) is a usage error.
--summary prints each named hard check with its worst value and bound.
Exit code 0 iff every named check passes, 1 when one fails, 2 on a usage
error and 3 when the run raises ValueError or RuntimeError at valid flags.
"""

from __future__ import annotations

import argparse
import os
import sys

from .harness import EXPERIMENTS, ExperimentConfig, csv_lines, run_experiment, \
    summary, write_csv


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="macrolab",
        description="Entropy-inequality sweeps on canonical macrostates")
    p.add_argument("experiment", choices=EXPERIMENTS)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--dims", type=int, nargs=2, default=None,
                   metavar=("DA", "DB"))
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--summary", action="store_true",
                   help="print named checks, pass fraction and redraws")
    return p


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config of the flags given; raises ValueError naming every given
    flag that the experiment does not read."""
    given = {key: getattr(args, key) for key in
             ("dim", "dims", "m", "trials", "seed", "n_max", "epsilon")
             if getattr(args, key) is not None}
    _, reads = EXPERIMENTS[args.experiment]
    unread = [f"--{key.replace('_', '-')}" for key in given
              if key not in reads]
    if unread:
        raise ValueError(f"{args.experiment} does not read {', '.join(unread)}")
    if "dims" in given:
        given["dims"] = tuple(given["dims"])
    return ExperimentConfig(experiment=args.experiment, **given)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:     # an invalid config is a usage error
        parser.error(str(exc))
    if args.out and (os.path.isdir(args.out) or      # fail before the run
                     not os.path.isdir(os.path.dirname(args.out) or ".")):
        parser.error(f"--out {args.out}: not a file in an existing directory")
    try:
        result = run_experiment(config)
    except (ValueError, RuntimeError) as exc:
        print(f"macrolab: {args.experiment}: {exc}", file=sys.stderr)
        return 3
    if args.out:
        write_csv(result, args.out)
    else:
        print("\n".join(csv_lines(result, timestamp=False)))
    if args.summary:
        print(summary(result), file=sys.stderr)
    return 0 if result.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
