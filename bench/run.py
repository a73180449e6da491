#!/usr/bin/env python3
"""macrolab benchmark: run one seeded workload, check its outputs, time it.

    python3 bench/run.py --workload sweeps --seed 42 --seconds 30 --trace 0

Imports macrolab from `src/` of the checkout this file sits in, sets up the
workload several times (import, inputs, one warm-up call), then runs full
passes back to back, one caller, as many as fit in `--seconds` and at
least two.  Each operation runs under a wall-clock limit
(SIGALRM).  With `--trace 1`, untraced and traced passes alternate and the
per-layer metrics come from the traced ones.  The last line of standard
output is a JSON object with `correct`, `attempted`, `failed` and
`metrics`; the lines before it are a readable report.  Metrics and workloads
are described in NOTES.md.
"""

from __future__ import annotations

import argparse
import collections
import importlib
import json
import lzma
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json.xz"

BLAS_THREADS_MAX = 2          # NOTES.md figures: two threads, two cores
SETUP_REPEATS = 11
MIN_PASSES = 2                # two bodies per operation, for determinism
REL_TOL = 1e-9                # output fields against the reference
ABS_TOL = 1e-12               # floor for fields whose reference is ~0
INCOMPLETE = ("raised", "timeout")


class OpTimeout(Exception):
    """An operation ran past its hang-guard limit."""


def _alarm(signum, frame):
    from tracing import in_wrapper
    if in_wrapper(frame):       # let a span close first; retry in 1 ms
        signal.setitimer(signal.ITIMER_REAL, 0.001)
        return
    raise OpTimeout()


def call_with_limit(fn, limit_s: float):
    """Run fn() in this process; raise OpTimeout after limit_s seconds."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def limit_blas_threads() -> int:
    """Fix the BLAS thread count before numpy loads; returns it."""
    threads = min(BLAS_THREADS_MAX, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def import_macrolab():
    """(Re-)import macrolab from this checkout's src/, never from elsewhere."""
    if not (SRC / "macrolab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no macrolab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules
                if k == "macrolab" or k.startswith("macrolab.")]:
        del sys.modules[key]
    ml = importlib.import_module("macrolab")
    for sub in ("operators", "maxent", "entropy", "hypotest", "coarsegrain",
                "harness"):
        importlib.import_module(f"macrolab.{sub}")
    if Path(ml.__file__).resolve().parent != (SRC / "macrolab").resolve():
        raise SystemExit(f"bench: imported macrolab from {ml.__file__}")
    return ml


# ---------------------------------------------------------------------------
# Outputs against the reference
# ---------------------------------------------------------------------------

def load_reference() -> dict:
    with lzma.open(REFERENCE, "rt") as fh:
        return json.load(fh)


def _field_matches(value: str, ref: str) -> bool:
    if value == ref:
        return True
    try:
        x, y = float(value), float(ref)
    except ValueError:
        return False
    return math.isclose(x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def body_mismatch(body: list[str], ref: list[str]) -> str | None:
    """None if every field matches the reference, else the first difference."""
    if len(body) != len(ref):
        return f"{len(body)} lines, reference has {len(ref)}"
    for i, (line, ref_line) in enumerate(zip(body, ref)):
        fields, ref_fields = line.split(","), ref_line.split(",")
        if len(fields) != len(ref_fields) or not all(
                map(_field_matches, fields, ref_fields)):
            return f"line {i + 1}: {line!r}, reference {ref_line!r}"
    return None


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def run_op(op, limit_s: float) -> dict:
    """One operation: its time, status and output body."""
    t0 = time.perf_counter()
    try:
        body, checks_pass = call_with_limit(op.call, limit_s)
    except OpTimeout:
        return {"key": op.key, "s": time.perf_counter() - t0,
                "status": "timeout", "detail": f"over {limit_s:g} s"}
    except Exception as exc:  # the program's failure, counted, run goes on
        return {"key": op.key, "s": time.perf_counter() - t0,
                "status": "raised", "detail": f"{type(exc).__name__}: {exc}"}
    return {"key": op.key, "s": time.perf_counter() - t0, "body": body,
            "status": "ok" if checks_pass else "checks",
            "detail": "" if checks_pass else "all_pass is False"}


def run_pass(ops, limit_s: float) -> dict:
    t0 = time.perf_counter()
    results = [run_op(op, limit_s) for op in ops]
    return {"s": time.perf_counter() - t0, "ops": results}


def judge(passes: list[dict], reference: dict) -> None:
    """Mark mismatches and nondeterminism; both count as failures."""
    first: dict[str, list[str]] = {}
    for p in passes:
        for r in p["ops"]:
            if "body" not in r:
                continue
            seen = first.setdefault(r["key"], r["body"])
            ref = reference.get(r["key"])
            miss = body_mismatch(r["body"], ref) if ref is not None else None
            r["reference"] = ref is not None
            if r["body"] != seen:
                r["status"], r["detail"] = "nondeterministic", \
                    "body differs from the first pass"
            elif miss:
                r["status"], r["detail"] = "mismatch", miss


def op_seconds(p: dict) -> float:
    """Mean time of the operations that returned an output (all, if none
    did).  One that raised or timed out stopped part way, so its time would
    make the mean depend on how many of the seed's inputs fail."""
    done = [r["s"] for r in p["ops"] if r["status"] not in INCOMPLETE]
    return statistics.fmean(done or [r["s"] for r in p["ops"]])


def failed_operations(passes: list[dict]) -> tuple[list[str], list[str]]:
    """(every operation key, the keys that failed in any pass).

    An operation is counted once however many passes repeat it, so the
    counts depend on the workload and seed, not on how many passes fitted
    in the run; one failed pass fails the operation."""
    keys = list(dict.fromkeys(r["key"] for p in passes for r in p["ops"]))
    bad = {r["key"] for p in passes for r in p["ops"] if r["status"] != "ok"}
    return keys, [k for k in keys if k in bad]


def median_op_time(passes: list[dict], key_suffix: str) -> float:
    times = [r["s"] for p in passes for r in p["ops"]
             if r["key"].endswith("/" + key_suffix)]
    return statistics.median(times) if times else 0.0


# ---------------------------------------------------------------------------
# Host record
# ---------------------------------------------------------------------------

def blas_threads_in_effect() -> int | None:
    """Ask the loaded OpenBLAS for its thread count; None if not found."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def host_record(args, threads_set: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_set": threads_set,
            "blas_threads_in_effect": blas_threads_in_effect(),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "git_sha": git_sha(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup(workload, seed: int):
    """Import macrolab, draw the inputs, make the warm-up call; timed."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ml = import_macrolab()
        ops = workload.ops(ml, seed)
        workload.warmup(ml, seed)
        times.append(time.perf_counter() - t0)
    return ops, statistics.median(times)


def measure(workload, ops, seconds: float, tracer=None) -> list[dict]:
    """Passes back to back while the next one, taking as long as the last,
    would end within `seconds`; at least MIN_PASSES.  With a tracer, every
    second pass is traced."""
    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or (
            time.perf_counter() - t0 + passes[-1]["s"] <= seconds):
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            lo = tracer.mark()
            with tracer.installed():
                p = run_pass(ops, workload.op_limit_s)
            p["spans"] = (lo, tracer.mark())
        else:
            p = run_pass(ops, workload.op_limit_s)
        p["traced"] = traced
        passes.append(p)
    return passes


def end_to_end(passes, setup_s: float) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    return {"setup_s": setup_s,
            "op_s": statistics.median(op_seconds(p) for p in untraced),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024}


def per_layer(passes, tracer) -> dict:
    from tracing import layer_metrics
    from workloads import SWEEPS
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    rows = [layer_metrics(tracer.table(*p["spans"])) for p in traced]
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    base = statistics.median(p["s"] for p in untraced)
    out["trace.overhead_frac"] = (
        statistics.median(p["s"] for p in traced) - base) / base
    for name, _ in SWEEPS:
        out[f"harness.{name}_s"] = median_op_time(untraced, name)
    return out


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in doc["per_layer" if trace else "end_to_end"]}


def report_lines(args, host, passes, e2e) -> list[str]:
    from workloads import SWEEPS
    untraced = [p for p in passes if not p["traced"]]
    results = [r for p in passes for r in p["ops"]]
    failed = [r for r in results if r["status"] != "ok"]
    keys, failed_keys = failed_operations(passes)
    lines = [f"bench: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace} "
             f"passes={len(passes)}",
             "host: " + " ".join(f"{k}={v}" for k, v in host.items())]
    for i, p in enumerate(passes):
        lines.append(f"pass {i + 1}{' (traced)' if p['traced'] else ''}: "
                     f"{p['s']:.4f} s")
    rows = [("setup_s", e2e["setup_s"], "s"),
            ("wall_s", statistics.median(p["s"] for p in untraced), "s"),
            ("op_s", e2e["op_s"], "s")]
    if args.workload == "sweeps":
        rows += [(f"{name}_s", median_op_time(untraced, name), "s")
                 for name, _ in SWEEPS]
    rows.append(("peak_rss_mb", e2e["peak_rss_mb"], "MB"))
    lines += [f"{name:<16} {value:.6g} {unit}" for name, value, unit in rows]
    lines.append(f"{'fail_frac':<16} {len(failed_keys) / len(keys):.4f} "
                 f"({len(failed_keys)}/{len(keys)} operations, "
                 f"{len(failed)}/{len(results)} runs of them)")
    checked = sum(1 for r in results if r.get("reference"))
    lines.append(f"outputs: {checked}/{len(results)} compared with the "
                 f"reference (rel_tol {REL_TOL:g}, abs_tol {ABS_TOL:g}); "
                 "every body compared with the first pass")
    counts = collections.Counter((r["key"], r["status"], r["detail"])
                                 for r in failed)
    lines += [f"failed: {key} {status} {detail} ({n} of {len(passes)} passes)"
              for (key, status, detail), n in counts.items()]
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = limit_blas_threads()
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    units = declared_metrics(args.trace)
    ops, setup_s = setup(workload, args.seed)
    host = host_record(args, threads)
    tracer = Tracer() if args.trace else None
    passes = measure(workload, ops, args.seconds, tracer)
    judge(passes, load_reference())

    e2e = end_to_end(passes, setup_s)
    metrics = per_layer(passes, tracer) if args.trace else e2e
    if set(metrics) != set(units):
        raise SystemExit("bench: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    lines = report_lines(args, host, passes, e2e)
    if args.trace:
        lines += [f"{name:<40} {value:.6g} {units[name]}"
                  for name, value in metrics.items()]
    results = [r for p in passes for r in p["ops"]]
    keys, failed_keys = failed_operations(passes)
    incorrect = [r for r in results
                 if r["status"] in ("mismatch", "nondeterministic")]

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.table().save(OUT / f"{stem}.spans.npz")
    for r in results:
        r.pop("body", None)
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"host": host, "metrics": metrics, "report": lines,
         "passes": [{"s": p["s"], "traced": p["traced"], "ops": p["ops"]}
                    for p in passes]}, indent=1))

    print("\n".join(lines))
    print(json.dumps({"correct": not incorrect, "attempted": len(keys),
                      "failed": len(failed_keys),
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
