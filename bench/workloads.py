"""The benchmark's workloads: inputs drawn from the workload seed, the
operations one pass runs, and the warm-up call made during set-up.

Every operation calls a public macrolab function and returns its output as
text lines plus whether the program's own hard checks passed.  Operations
look their function up on the module at call time, so a traced pass sees
the wrappers that `tracing.Tracer` installed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

EPSILON = 0.5

# The rate-series workloads draw their pairs at this fixed seed, whatever the
# workload seed.  Pairs drawn at other seeds often have an NP threshold
# t >= 8192, where the bisection in np_optimal_test never ends (see NOTES.md),
# so every timing would measure the hang guard instead of the search.
PAIR_SEED = 42


@dataclass(frozen=True)
class Op:
    key: str                      # names the output in the reference file
    call: Callable[[], tuple[list[str], bool]]


@dataclass(frozen=True)
class Workload:
    name: str
    op_limit_s: float             # hang guard per operation
    ops: Callable                 # (macrolab, seed) -> list[Op]
    warmup: Callable              # (macrolab, seed) -> None


def _experiment(ml, key: str, **config) -> Op:
    def call():
        h = ml.harness
        result = h.run_experiment(h.ExperimentConfig(**config))
        return h.csv_lines(result, timestamp=False), result.all_pass
    return Op(key, call)


def _series(ml, key: str, rho, sigma, n_max: int) -> Op:
    def call():
        series = ml.hypotest.stein_rate_series(rho, sigma, EPSILON, n_max)
        rows = [f"{n},{prob!r},{rate!r}" for n, prob, rate in series.rows]
        return rows, True
    return Op(key, call)


SWEEPS = (("process", {"dim": 4, "m": 2}), ("monotonicity", {}),
          ("product", {}), ("lindblad", {}))


def sweeps_ops(ml, seed: int, trials: int = 1000) -> list[Op]:
    return [_experiment(ml, f"sweeps/{seed}/{name}", experiment=name,
                        trials=trials, seed=seed, **kw)
            for name, kw in SWEEPS]


def stein_ops(ml, seed: int, n_max: int = 9) -> list[Op]:
    """diag(0.9, 0.1) vs uniform, and the non-commuting pair that
    scripts/stein_convergence.py draws, taken at PAIR_SEED."""
    rd = ml.operators.random_density
    pairs = [("diag", np.diag([0.9, 0.1]).astype(complex),
              np.diag([0.5, 0.5]).astype(complex)),
             ("random", rd(PAIR_SEED, 2, index=0), rd(PAIR_SEED, 2, index=1))]
    return [_series(ml, f"stein/{name}", rho, sigma, n_max)
            for name, rho, sigma in pairs]


def qutrit_ops(ml, seed: int, n_max: int = 5, pairs: int = 8) -> list[Op]:
    rd = ml.operators.random_density
    return [_series(ml, f"np-qutrit/{k}", rd(PAIR_SEED, 3, index=2 * k),
                    rd(PAIR_SEED, 3, index=2 * k + 1), n_max)
            for k in range(pairs)]


def kg_ops(ml, seed: int, seeds: int = 16, trials: int = 100,
           n_max: int = 3) -> list[Op]:
    return [_experiment(ml, f"kg/{s}", experiment="kg-checks", trials=trials,
                        seed=s, n_max=n_max)
            for s in range(seed, seed + seeds)]


def _warm(ops: list[Op]) -> None:
    for op in ops:
        op.call()


WORKLOADS = {
    "sweeps": Workload(
        "sweeps", 30.0, sweeps_ops,
        lambda ml, seed: _warm(sweeps_ops(ml, seed, trials=6))),
    "stein": Workload(
        "stein", 60.0, stein_ops,
        lambda ml, seed: _warm(stein_ops(ml, seed, n_max=6))),
    "np-qutrit": Workload(
        "np-qutrit", 15.0, qutrit_ops,
        lambda ml, seed: _warm(qutrit_ops(ml, seed, n_max=3, pairs=2))),
    # the warm-up uses a seed whose battery passes, so set-up never raises
    "kg": Workload(
        "kg", 10.0, kg_ops,
        lambda ml, seed: _warm(kg_ops(ml, 42, seeds=1, trials=20, n_max=2))),
}
