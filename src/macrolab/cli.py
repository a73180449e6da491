"""Command-line entry point.

    macrolab <experiment> [--dim D] [--dims DA DB] [--m M] [--trials T]
             [--seed S] [--n-max N] [--epsilon E] [--out PATH]
             [--config PATH.json] [--summary]

Flags override config-file values.  --summary prints each named hard check
with its worst value and bound.  Exit code 0 iff every named check passes.
"""

from __future__ import annotations

import argparse
import json
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
    p.add_argument("--config", type=str, default=None,
                   help="JSON file with the same keys as the flags")
    p.add_argument("--summary", action="store_true",
                   help="print named checks, pass fraction and redraws")
    return p


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if args.config:
        with open(args.config) as fh:
            values.update(json.load(fh))
    for key in ("dim", "dims", "m", "trials", "seed", "n_max", "epsilon",
                "out"):
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    if "dims" in values and values["dims"] is not None:
        values["dims"] = tuple(values["dims"])
    values.pop("experiment", None)
    return ExperimentConfig(experiment=args.experiment, **values)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:     # an invalid config is a usage error
        parser.error(str(exc))
    result = run_experiment(config)
    if config.out:
        write_csv(result, config.out)
    else:
        print("\n".join(csv_lines(result, timestamp=False)))
    if args.summary:
        print(summary(result), file=sys.stderr)
    return 0 if result.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
