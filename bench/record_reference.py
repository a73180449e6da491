#!/usr/bin/env python3
"""Record the outputs that run.py holds every later build to.

    python3 bench/record_reference.py

Runs each workload's operations once for every seed in REFERENCE_SEEDS and
writes bench/reference.json.xz: operation key -> output lines, with every
decimal field rounded to 12 significant digits (far inside run.REL_TOL).
Operations that raise or time out get no entry.  Record only from a commit
whose outputs are trusted.
"""

from __future__ import annotations

import json
import lzma
import sys

import run

REFERENCE_SEEDS = tuple(range(10)) + (42,)


def rounded(field: str) -> str:
    try:
        return field if field.lstrip("-").isdigit() else f"{float(field):.12g}"
    except ValueError:
        return field


def main() -> int:
    run.limit_blas_threads()
    from workloads import WORKLOADS
    ml = run.import_macrolab()
    bodies, tried = {}, set()
    for workload in WORKLOADS.values():
        for seed in REFERENCE_SEEDS:
            for op in workload.ops(ml, seed):
                if op.key in tried:
                    continue
                tried.add(op.key)
                r = run.run_op(op, workload.op_limit_s)
                print(f"{op.key}: {r['status']} {r['s']:.2f} s", flush=True)
                if "body" in r:
                    bodies[op.key] = [",".join(map(rounded, line.split(",")))
                                      for line in r["body"]]
    with lzma.open(run.REFERENCE, "wt") as fh:
        json.dump(bodies, fh, sort_keys=True, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
