"""Experiment orchestration: seeded inequality sweeps and report emission.

Each experiment draws everything it needs from per-trial RNG streams derived
from (seed, trial index), so results are identical regardless of execution
order.  The four sweeps draw and compute on stacks: trials are grouped by
dimension, each group's inputs come from stacked draws (still one RNG
stream per trial index), each group is fitted and compared by a few
stacked calls of maxent.fit_stack and relative_entropy instead of one call
per trial, and rows come out in trial order.  process and monotonicity
coarse-grain by one step (_coarse_grain_pairs) and skip a trial where a
fit fails, counting it as a redraw.  A stacked result is bit-identical to
the result computed alone, so a run of T trials gives the rows with trial
< T of any longer run.  A run is one shape for every experiment:
named columns, rows of raw values, and named hard checks.  The four sweeps
share the columns trial, dim, m, S_before, S_after, slack, pass; stein and
kg-checks have their own.  Each check reports the worst value over the run,
the bound it was compared with, and whether every comparison held.
"""

from __future__ import annotations

import datetime
import math
import operator
from dataclasses import dataclass

import numpy as np

from .coarsegrain import (epsilon_choices, gamma_n, kg_apply_observable,
                          kg_apply_state, kg_build_stack,
                          positivity_diagnostic, product_coarse_grain)
from .entropy import relative_entropy
from .hypotest import stein_rate_series
from .maxent import ObservableSet, expectations, fit_stack
from .operators import (apply_channels, dagger, partial_trace,
                        random_densities, random_density, random_kraus_sets,
                        random_observable_sets, random_observables,
                        random_test_operators, random_unitaries, tensor_power)

SLACK_TOL = 1e-9    # an entropy difference passes at >= -SLACK_TOL


@dataclass
class ExperimentConfig:
    experiment: str
    dim: int | None = None
    dims: tuple[int, int] = (2, 2)
    m: int = 2
    trials: int = 100
    seed: int = 0
    n_max: int = 10
    epsilon: float = 0.5

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0 < self.epsilon <= 1:
            raise ValueError("epsilon must lie in (0, 1]")
        if self.dim is not None and self.dim < 2:
            raise ValueError("dim must be >= 2")
        if min(self.dims) < 2:
            raise ValueError("each of dims must be >= 2")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.experiment == "stein" and self.n_max < 2:
            raise ValueError("stein compares two rates: n_max must be >= 2")
        if self.experiment == "stein" and self.epsilon == 1:
            raise ValueError("stein's rates are all 0 at epsilon 1: epsilon "
                             "must be < 1")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        d = self.dim or 4       # monotonicity clamps m per dimension
        if self.experiment == "process" and self.m > d * d - 1:
            raise ValueError(f"m must be <= {d * d - 1} at dim {d}")


@dataclass(frozen=True)
class Check:
    name: str
    value: float    # worst value over the run
    bound: float    # what that value was compared with
    passed: bool    # the comparison held at every evaluation


def _check(name: str, holds, pairs) -> Check:
    """Passes iff holds(value, bound) at every pair; reports the pair nearest
    to failing: holds is operator.lt (upper bound) or operator.ge (lower)."""
    pairs = list(pairs)
    worst = max if holds is operator.lt else min
    value, bound = worst(pairs, key=lambda p: p[0] - p[1],
                         default=(math.nan, math.nan))
    return Check(name, float(value), float(bound),
                 all(holds(v, b) for v, b in pairs))


@dataclass
class RunResult:
    config: ExperimentConfig
    columns: tuple[str, ...]
    rows: list[tuple]
    checks: list[Check]
    redraws: int = 0

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)


SWEEP_COLUMNS = ("trial", "dim", "m", "S_before", "S_after", "slack", "pass")


def _sweep_result(config: ExperimentConfig, trials: list[tuple],
                  extra: tuple[Check, ...] = (), redraws: int = 0
                  ) -> RunResult:
    """Rows and the slack check from (trial, dim, m, S_before, S_after)."""
    rows = [(t, d, m, before, after, before - after,
             int(before - after >= -SLACK_TOL))
            for t, d, m, before, after in trials]
    slack = _check("slack", operator.ge, ((r[5], -SLACK_TOL) for r in rows))
    return RunResult(config, SWEEP_COLUMNS, rows, [slack, *extra], redraws)


def _dim_groups(config: ExperimentConfig) -> list[tuple[int, np.ndarray]]:
    """(d, its trials in ascending order) for every dimension d in use:
    config.dim for every trial, or else d cycling through 2, 3, 4."""
    if config.dim is not None:
        return [(config.dim, np.arange(config.trials))]
    return [(d, np.arange(start, config.trials, 3))
            for start, d in enumerate((2, 3, 4)) if start < config.trials]


def _coarse_grain_pairs(g: np.ndarray, pairs: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Canonical coarse graining of both states of every trial t, pairs[:, t],
    onto that trial's observables g[t], by one fit_stack call.  Returns the
    fitted states, shaped like pairs, and the mask of the trials where both
    fits converged; a failed fit holds its last iterate."""
    g2 = np.concatenate([g, g])
    fit = fit_stack(g2, expectations(g2, pairs.reshape(-1, *pairs.shape[2:])))
    return fit.mu.reshape(pairs.shape), fit.ok.reshape(2, -1).all(axis=0)


def run_process(config: ExperimentConfig) -> RunResult:
    """Reproducible-process sweep: two preparations, one shared unitary.

    Trial t draws its preparation observables g at index 100 t, its final
    observables f at 100 t + 1, its unitary u at t and its two states at
    1000 t and 1000 t + 100.  The states are prepared by coarse graining on
    g, evolved by u and coarse-grained on f.  Checks that relative entropy
    between the two final macrostates does not exceed that between the
    prepared ones (slack), and the same for the uniform reference state
    (second_law).  A trial where any of its fits fails is skipped and
    counted as a redraw.
    """
    seed, n, m = config.seed, config.trials, config.m
    d = config.dim if config.dim is not None else 4
    ts = np.arange(n)
    g = random_observable_sets(seed, d, m, 100 * ts)
    f = random_observable_sets(seed, d, m, 100 * ts + 1)
    u = random_unitaries(seed, d, ts)
    states = random_densities(seed, d, np.concatenate(
        [1000 * ts, 1000 * ts + 100])).reshape(2, n, d, d)
    prepared, ok_g = _coarse_grain_pairs(g, states)
    final, ok_f = _coarse_grain_pairs(f, u @ prepared @ dagger(u))
    ok = ok_g & ok_f
    (mu_g, mu_gp), (mu_f, mu_fp) = prepared[:, ok], final[:, ok]
    uniform = np.broadcast_to(np.eye(d) / d, mu_g.shape)
    second_law = [(a - b, -SLACK_TOL) for a, b in zip(
        relative_entropy(mu_g, uniform).tolist(),
        relative_entropy(mu_f, uniform).tolist())]
    kept = ts[ok].tolist()
    trials = list(zip(kept, [d] * len(kept), [m] * len(kept),
                      relative_entropy(mu_g, mu_gp).tolist(),
                      relative_entropy(mu_f, mu_fp).tolist()))
    return _sweep_result(config, trials,
                         (_check("second_law", operator.ge, second_law),),
                         n - len(kept))


def run_monotonicity(config: ExperimentConfig) -> RunResult:
    """Canonical coarse graining can only shrink relative entropy.  A trial
    where either fit fails is skipped and counted as a redraw."""
    seed, trials, redraws = config.seed, [], 0
    for d, ts in _dim_groups(config):
        m = min(config.m, d * d - 1)
        g = random_observable_sets(seed, d, m, ts)
        states = np.stack([random_densities(seed, d, 2 * ts),
                           random_densities(seed, d, 2 * ts + 1)])
        coarse, ok = _coarse_grain_pairs(g, states)
        redraws += int(np.sum(~ok))
        kept = ts[ok].tolist()
        trials += zip(kept, [d] * len(kept), [m] * len(kept),
                      relative_entropy(*states[:, ok]).tolist(),
                      relative_entropy(*coarse[:, ok]).tolist())
    return _sweep_result(config, sorted(trials), redraws=redraws)


def run_product(config: ExperimentConfig) -> RunResult:
    """Correlation removal can only shrink relative entropy.

    Also checks the weaker single-marginal bound
    S(rho_A || sigma_A) <= S(rho_AB || sigma_AB) (marginal).
    """
    dims, n = config.dims, config.trials
    d = dims[0] * dims[1]
    rho = random_densities(config.seed, d, 2 * np.arange(n))
    sigma = random_densities(config.seed, d, 2 * np.arange(n) + 1)
    s_full = relative_entropy(rho, sigma).tolist()
    s_prod = relative_entropy(product_coarse_grain(rho, dims),
                              product_coarse_grain(sigma, dims)).tolist()
    s_marg = relative_entropy(partial_trace(rho, dims, "A"),
                              partial_trace(sigma, dims, "A")).tolist()
    trials = list(zip(range(n), [d] * n, [0] * n, s_full, s_prod))
    marginal = [(full - marg, -SLACK_TOL)
                for full, marg in zip(s_full, s_marg)]
    return _sweep_result(config, trials,
                         (_check("marginal", operator.ge, marginal),))


def run_lindblad(config: ExperimentConfig) -> RunResult:
    """Lindblad monotonicity under random CPTP channels: trial t applies
    1 + t % 4 Kraus operators, and the trials of one Kraus count take their
    channels as one stack."""
    seed, trials = config.seed, []
    for d, ts in _dim_groups(config):
        n_kraus = 1 + ts % 4
        states = np.stack([random_densities(seed, d, 2 * ts),
                           random_densities(seed, d, 2 * ts + 1)])
        out = np.empty_like(states)
        for k in np.unique(n_kraus):
            group = n_kraus == k
            kraus = random_kraus_sets(seed, d, int(k), ts[group])
            out[:, group] = [apply_channels(x[group], kraus) for x in states]
        trials += zip(ts.tolist(), [d] * len(ts), n_kraus.tolist(),
                      relative_entropy(*states).tolist(),
                      relative_entropy(*out).tolist())
    return _sweep_result(config, sorted(trials))


# Benchmark pair for the error-rate study: classical KL is known in closed
# form, so the rate trend can be compared against an exact target.
STEIN_RHO = np.diag([0.9, 0.1]).astype(complex)
STEIN_SIGMA = np.diag([0.5, 0.5]).astype(complex)


def run_stein(config: ExperimentConfig) -> RunResult:
    """Finite-copy error-rate series for the diagonal benchmark pair."""
    series = stein_rate_series(STEIN_RHO, STEIN_SIGMA, config.epsilon,
                               config.n_max)
    rel = series.rel_entropy
    rows = [(n, prob, rate, rel, abs(rate - rel))
            for n, prob, rate in series.rows]
    # hard invariant: the rate approaches the relative entropy
    first_gap = abs(series.rows[0][2] - rel)
    last_gap = abs(series.rows[-1][2] - rel)
    return RunResult(config, ("N", "prob", "rate", "relative_entropy", "gap"),
                     rows, [_check("rate_trend", operator.lt,
                                   [(last_gap, first_gap)])])


# Kawasaki-Gunton hard checks and the comparison each one makes
KG_CHECKS = {"defining_property": operator.lt, "linearity": operator.lt,
             "idempotency": operator.lt, "adjoint_expectations": operator.lt,
             "pairing_slack": operator.ge, "fixed_point": operator.lt}


def run_kg_checks(config: ExperimentConfig) -> RunResult:
    """Kawasaki-Gunton invariant battery plus the positivity diagnostic.

    The hard checks of KG_CHECKS run over dims {2, 3}, m in {1, 2},
    N in {1, ..., min(n_max, 3)}; the positivity measurement is reported but
    never asserted.  Per dimension both setups (m = 1, 2) are built first,
    each fitting its kg_rho and kg_sigma in one stacked build; the test
    operators of the checks and of the diagnostic depend only on
    (seed, d^N), so each is drawn once per (d, N) and serves both.  Each
    projector is lifted once per N, and every check on N copies reads that
    lift.  The diagnostic reads each P Gamma's extreme eigenvalues from one
    d x d eigensolve (coarsegrain.positivity_diagnostic).  Rows come out in
    (d, m, N) order.
    """
    seed, tol = config.seed, SLACK_TOL
    rows = []
    pairs = {name: [] for name in KG_CHECKS}
    n_range = range(1, min(config.n_max, 3) + 1)
    for d in (2, 3):
        setups = []
        # rho of setup m is drawn at 10d + m and sigma at 10d + m + 1
        states = random_densities(seed, d, 10 * d + np.arange(1, 4))
        for m in (1, 2):
            obs = ObservableSet(d, tuple(random_observables(
                seed, d, m, index=10 * d + m)))
            rho, sigma = states[m - 1], states[m]
            kg_rho, kg_sigma = kg_build_stack(
                obs, [obs.expectations(rho), obs.expectations(sigma)])
            lifted = {n: (kg_rho.lift(n), kg_sigma.lift(n)) for n in n_range}
            gammas = {n: gamma_n(kg_sigma_n, kg_rho.mu)
                      for n, (_, kg_sigma_n) in lifted.items()}
            setups.append((rho, lifted, gammas,
                           epsilon_choices(max(gammas.values()))))
        draws = {n: (*random_test_operators(seed, d ** n, (100 + n, 200 + n)),
                     random_density(seed, d ** n, index=300 + n))
                 for n in n_range}
        reports = {n: positivity_diagnostic(
            [lifted[n][0] for _, lifted, *_ in setups],
            trials=min(config.trials, 100), seed=seed) for n in n_range}
        for m, (rho, lifted, gammas, (eps, eps_prime)) in zip((1, 2), setups):
            for n in n_range:
                gamma_op, gamma_op2, tau = draws[n]
                kg_rho, kg_sigma = lifted[n]
                rho_n, mu_n = tensor_power(rho, n), kg_rho.mu_n
                p_gamma, p_gamma2, p_combo = kg_apply_observable(
                    kg_rho, np.stack([gamma_op, gamma_op2,
                                      0.3 * gamma_op + 0.6 * gamma_op2]))
                # defining property via the pairing
                defect = abs(np.trace(rho_n @ p_gamma)
                             - np.trace(mu_n @ gamma_op))
                pairs["defining_property"].append((defect, tol))
                # linearity
                lin = p_combo - 0.3 * p_gamma - 0.6 * p_gamma2
                pairs["linearity"].append((float(np.max(np.abs(lin))), 1e-10))
                # idempotency across different expectation values
                ps_gamma = kg_apply_observable(kg_sigma, gamma_op)
                idem = kg_apply_observable(kg_rho, ps_gamma) - ps_gamma
                pairs["idempotency"].append((float(np.linalg.norm(idem)), tol))
                # expectation reproduction by the adjoint
                gaps = np.einsum("aij,ji->a", kg_rho.gbar,
                                 kg_apply_state(kg_rho, tau) - tau)
                pairs["adjoint_expectations"] += [(abs(g), tol) for g in gaps]
                # pairing-constraint slack for the eps/eps' choices
                q_pairing = float((np.trace(mu_n @ gamma_op)
                                   - np.trace(mu_n @ ps_gamma)).real)
                pairs["pairing_slack"].append((eps_prime - q_pairing,
                                               eps - tol))
                # fixed point: gamma vanishes at rho = mu_f
                g_fixed = gamma_n(kg_rho, kg_rho.mu)
                pairs["fixed_point"].append((g_fixed, 1e-10))
                report = reports[n][m - 1]
                rows.append((n, d, m, gammas[n], report.min_eig,
                             report.violation_fraction))
    return RunResult(config, ("N", "dim", "m", "gamma_N", "min_eig_PGamma",
                              "violation_fraction"), rows,
                     [_check(name, holds, pairs[name])
                      for name, holds in KG_CHECKS.items()])


# Each experiment's runner and the ExperimentConfig settings it reads
EXPERIMENTS = {
    "process": (run_process, ("dim", "m", "trials", "seed")),
    "monotonicity": (run_monotonicity, ("dim", "m", "trials", "seed")),
    "product": (run_product, ("dims", "trials", "seed")),
    "lindblad": (run_lindblad, ("dim", "trials", "seed")),
    "stein": (run_stein, ("n_max", "epsilon")),
    "kg-checks": (run_kg_checks, ("trials", "seed", "n_max")),
}


def run_experiment(config: ExperimentConfig) -> RunResult:
    run, _ = EXPERIMENTS[config.experiment]
    return run(config)


def csv_lines(result: RunResult, timestamp: bool = True) -> list[str]:
    """CSV report; first line is a timestamp comment, excluded from
    determinism comparisons.  Every field is its str: a float its repr,
    infinity inf."""
    lines = []
    if timestamp:
        now = datetime.datetime.now(datetime.timezone.utc).isoformat()
        lines.append(f"# generated {now}")
    lines.append(",".join(result.columns))
    for row in result.rows:
        lines.append(",".join(map(str, row)))
    return lines


def write_csv(result: RunResult, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(csv_lines(result)) + "\n")


def summary(result: RunResult) -> str:
    """Row count, the share of named checks that passed, redraws, and one
    line per check with its worst value and bound."""
    passed = sum(c.passed for c in result.checks)
    lines = [f"experiment: {result.config.experiment}",
             f"rows: {len(result.rows)}",
             f"pass fraction: {passed / len(result.checks):.4f}",
             f"redraws: {result.redraws}"]
    lines += [f"check {c.name}: {'pass' if c.passed else 'FAIL'}, "
              f"worst {c.value:.3e}, bound {c.bound:.3e}"
              for c in result.checks]
    lines.append(f"hard checks pass: {result.all_pass}")
    if result.redraws and result.rows and \
            result.redraws / len(result.rows) >= 0.05:
        lines.append("WARNING: redraw rate >= 5%; run flagged")
    return "\n".join(lines)
