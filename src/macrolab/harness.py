"""Experiment orchestration: seeded inequality sweeps and report emission.

Each experiment draws everything it needs from per-trial RNG streams derived
from (seed, trial index), so results are identical regardless of execution
order.  A run is one shape for every experiment: named columns, rows of raw
values, and named hard checks.  The four sweeps share the columns
trial, dim, m, S_before, S_after, slack, pass; stein and kg-checks have their
own.  Each check reports the worst value over the run, the bound it was
compared with, and whether every comparison held.
"""

from __future__ import annotations

import datetime
import math
import operator
from dataclasses import dataclass

import numpy as np

from .coarsegrain import (canonical_coarse_grain, epsilon_choices, gamma_n,
                          kg_apply_observable, kg_apply_state, kg_build,
                          positivity_diagnostic, product_coarse_grain)
from .entropy import relative_entropy
from .hypotest import stein_rate_series
from .maxent import InfeasibleTargetError, ObservableSet
from .operators import (apply_channel, partial_trace, random_density,
                        random_kraus, random_observables, random_test_operator,
                        random_unitary, tensor_power)

EXPERIMENTS = ("process", "monotonicity", "product", "lindblad", "stein",
               "kg-checks")


@dataclass
class ExperimentConfig:
    experiment: str
    dim: int | None = None
    dims: tuple[int, int] | None = None
    m: int = 2
    trials: int = 100
    seed: int = 0
    n_max: int = 10
    epsilon: float = 0.5
    slack_tol: float = 1e-9
    out: str | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 < self.epsilon <= 1:
            raise ValueError("epsilon must lie in (0, 1]")
        if self.dim is not None and self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.dims is not None and min(self.dims) < 2:
            raise ValueError("each of dims must be >= 2")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")


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
    tol = config.slack_tol
    rows = [(t, d, m, before, after, before - after,
             int(before - after >= -tol))
            for t, d, m, before, after in trials]
    slack = _check("slack", operator.ge, ((r[5], -tol) for r in rows))
    return RunResult(config, SWEEP_COLUMNS, rows, [slack, *extra], redraws)


def _trial_dim(config: ExperimentConfig, trial: int,
               cycle=(2, 3, 4)) -> int:
    return config.dim if config.dim is not None else cycle[trial % len(cycle)]


def _feasible_canonical(obs: ObservableSet, seed: int, trial: int,
                        index0: int) -> tuple:
    """Draw a state, measure it, fit: feasible by construction.

    Returns (canonical_state, redraw_count); redraws with fresh indices on the
    rare near-extremal fit failure.
    """
    redraws = 0
    for k in range(20):
        rho = random_density(seed, obs.dim, index=trial * 1000 + index0 + k)
        try:
            return canonical_coarse_grain(rho, obs), redraws
        except InfeasibleTargetError:
            redraws += 1
    raise InfeasibleTargetError(
        f"could not draw a feasible target in trial {trial}")


def run_process(config: ExperimentConfig) -> RunResult:
    """Reproducible-process sweep: two preparations, one shared unitary.

    Checks that relative entropy between the two final macrostates does not
    exceed that between the initial ones (slack), and the same for the
    uniform reference state (second_law).
    """
    trials, second_law, redraws = [], [], 0
    for trial in range(config.trials):
        d = _trial_dim(config, trial, cycle=(4,))
        seed = config.seed
        base = trial * 100
        g_obs = ObservableSet(d, tuple(random_observables(
            seed, d, config.m, index=base)))
        f_obs = ObservableSet(d, tuple(random_observables(
            seed, d, config.m, index=base + 1)))
        mu_g, r1 = _feasible_canonical(g_obs, seed, trial, 0)
        mu_gp, r2 = _feasible_canonical(g_obs, seed, trial, 100)
        redraws += r1 + r2
        u = random_unitary(seed, d, index=trial)
        evolved = u @ mu_g.mu @ u.conj().T
        evolved_p = u @ mu_gp.mu @ u.conj().T
        mu_f = canonical_coarse_grain(evolved, f_obs)
        mu_fp = canonical_coarse_grain(evolved_p, f_obs)
        s_before = relative_entropy(mu_g.mu, mu_gp.mu)
        s_after = relative_entropy(mu_f.mu, mu_fp.mu)
        uniform = np.eye(d) / d
        trials.append((trial, d, config.m, s_before, s_after))
        second_law.append((relative_entropy(mu_g.mu, uniform)
                           - relative_entropy(mu_f.mu, uniform),
                           -config.slack_tol))
    return _sweep_result(config, trials,
                         (_check("second_law", operator.ge, second_law),),
                         redraws)


def run_monotonicity(config: ExperimentConfig) -> RunResult:
    """Canonical coarse graining can only shrink relative entropy."""
    trials, redraws = [], 0
    for trial in range(config.trials):
        d = _trial_dim(config, trial)
        m = min(config.m, d * d - 1)
        obs = ObservableSet(d, tuple(random_observables(
            config.seed, d, m, index=trial)))
        rho = random_density(config.seed, d, index=2 * trial)
        sigma = random_density(config.seed, d, index=2 * trial + 1)
        try:
            cg_rho = canonical_coarse_grain(rho, obs)
            cg_sigma = canonical_coarse_grain(sigma, obs)
        except InfeasibleTargetError:
            redraws += 1
            continue
        trials.append((trial, d, m, relative_entropy(rho, sigma),
                       relative_entropy(cg_rho.mu, cg_sigma.mu)))
    return _sweep_result(config, trials, redraws=redraws)


def run_product(config: ExperimentConfig) -> RunResult:
    """Correlation removal can only shrink relative entropy.

    Also checks the weaker single-marginal bound
    S(rho_A || sigma_A) <= S(rho_AB || sigma_AB) (marginal).
    """
    dims = config.dims if config.dims is not None else (2, 2)
    d = dims[0] * dims[1]
    trials, marginal = [], []
    for trial in range(config.trials):
        rho = random_density(config.seed, d, index=2 * trial)
        sigma = random_density(config.seed, d, index=2 * trial + 1)
        s_full = relative_entropy(rho, sigma)
        s_prod = relative_entropy(product_coarse_grain(rho, dims),
                                  product_coarse_grain(sigma, dims))
        s_marg = relative_entropy(partial_trace(rho, dims, "A"),
                                  partial_trace(sigma, dims, "A"))
        trials.append((trial, d, 0, s_full, s_prod))
        marginal.append((s_full - s_marg, -config.slack_tol))
    return _sweep_result(config, trials,
                         (_check("marginal", operator.ge, marginal),))


def run_lindblad(config: ExperimentConfig) -> RunResult:
    """Lindblad monotonicity under random CPTP channels."""
    trials = []
    for trial in range(config.trials):
        d = _trial_dim(config, trial)
        n_kraus = 1 + trial % 4
        kraus = random_kraus(config.seed, d, n_kraus, index=trial)
        rho = random_density(config.seed, d, index=2 * trial)
        sigma = random_density(config.seed, d, index=2 * trial + 1)
        trials.append((trial, d, n_kraus, relative_entropy(rho, sigma),
                       relative_entropy(apply_channel(rho, kraus),
                                        apply_channel(sigma, kraus))))
    return _sweep_result(config, trials)


# Benchmark pair for the error-rate study: classical KL is known in closed
# form, so the rate trend can be compared against an exact target.
STEIN_RHO = np.diag([0.9, 0.1]).astype(complex)
STEIN_SIGMA = np.diag([0.5, 0.5]).astype(complex)


def run_stein(config: ExperimentConfig) -> RunResult:
    """Finite-copy error-rate series for the diagonal benchmark pair."""
    series = stein_rate_series(STEIN_RHO, STEIN_SIGMA, config.epsilon,
                               config.n_max)
    rel = series.rel_entropy
    rows = [(n, prob, rate, rel,
             math.inf if math.isinf(rate) else abs(rate - rel))
            for n, prob, rate in series.rows]
    # hard invariant: the rate approaches the relative entropy
    first_gap = abs(series.rows[0][2] - rel)
    last_gap = abs(series.rows[-1][2] - rel)
    trend = Check("rate_trend", last_gap, first_gap,
                  len(series.rows) < 2 or last_gap < first_gap)
    return RunResult(config, ("N", "prob", "rate", "relative_entropy", "gap"),
                     rows, [trend])


# Kawasaki-Gunton hard checks and the comparison each one makes
KG_CHECKS = {"defining_property": operator.lt, "linearity": operator.lt,
             "idempotency": operator.lt, "adjoint_expectations": operator.lt,
             "pairing_slack": operator.ge, "fixed_point": operator.lt}


def run_kg_checks(config: ExperimentConfig) -> RunResult:
    """Kawasaki-Gunton invariant battery plus the positivity diagnostic.

    The hard checks of KG_CHECKS run over dims {2, 3}, m in {1, 2},
    N in {1, ..., min(n_max, 3)}; the positivity measurement is reported but
    never asserted.
    """
    seed = config.seed
    tol = config.slack_tol
    rows = []
    pairs = {name: [] for name in KG_CHECKS}
    n_range = range(1, min(config.n_max, 3) + 1)
    for d in (2, 3):
        for m in (1, 2):
            obs = ObservableSet(d, tuple(random_observables(
                seed, d, m, index=10 * d + m)))
            rho = random_density(seed, d, index=10 * d + m)
            sigma = random_density(seed, d, index=10 * d + m + 1)
            kg_rho = kg_build(obs, obs.expectations(rho))
            kg_sigma = kg_build(obs, obs.expectations(sigma))
            gammas = {n: gamma_n(kg_sigma, kg_rho.mu, n) for n in n_range}
            eps, eps_prime = epsilon_choices(max(gammas.values()))
            for n in n_range:
                dim_n = d ** n
                gamma_op = random_test_operator(seed, dim_n, index=100 + n)
                gamma_op2 = random_test_operator(seed, dim_n, index=200 + n)
                rho_n = tensor_power(rho, n)
                mu_n = tensor_power(kg_rho.mu, n)
                p_gamma = kg_apply_observable(kg_rho, gamma_op, n)
                # defining property via the pairing
                defect = abs(np.trace(rho_n @ p_gamma)
                             - np.trace(mu_n @ gamma_op))
                pairs["defining_property"].append((defect, tol))
                # linearity
                lin = kg_apply_observable(kg_rho, 0.3 * gamma_op + 0.6 * gamma_op2, n) \
                    - 0.3 * p_gamma - 0.6 * kg_apply_observable(kg_rho, gamma_op2, n)
                pairs["linearity"].append((float(np.max(np.abs(lin))), 1e-10))
                # idempotency across different expectation values
                ps_gamma = kg_apply_observable(kg_sigma, gamma_op, n)
                idem = kg_apply_observable(kg_rho, ps_gamma, n) - ps_gamma
                pairs["idempotency"].append((float(np.linalg.norm(idem)), tol))
                # expectation reproduction by the adjoint
                tau = random_density(seed, dim_n, index=300 + n)
                lifted = kg_apply_state(kg_rho, tau, n)
                for a in range(m):
                    gbar = kg_rho.lifted_observable(a, n)
                    pairs["adjoint_expectations"].append(
                        (abs(np.trace(gbar @ lifted) - np.trace(gbar @ tau)),
                         tol))
                # pairing-constraint slack for the eps/eps' choices
                q_pairing = float((np.trace(mu_n @ gamma_op)
                                   - np.trace(mu_n @ ps_gamma)).real)
                pairs["pairing_slack"].append((eps_prime - q_pairing,
                                               eps - tol))
                # fixed point: gamma vanishes at rho = mu_f
                g_fixed = gamma_n(kg_rho, kg_rho.mu, n)
                pairs["fixed_point"].append((g_fixed, 1e-10))
                report = positivity_diagnostic(kg_rho, n,
                                               trials=min(config.trials, 100),
                                               seed=seed)
                rows.append((n, d, m, gammas[n], report.min_eig,
                             report.violation_fraction))
    return RunResult(config, ("N", "dim", "m", "gamma_N", "min_eig_PGamma",
                              "violation_fraction"), rows,
                     [_check(name, holds, pairs[name])
                      for name, holds in KG_CHECKS.items()])


RUNNERS = {"process": run_process, "monotonicity": run_monotonicity,
           "product": run_product, "lindblad": run_lindblad,
           "stein": run_stein, "kg-checks": run_kg_checks}


def run_experiment(config: ExperimentConfig) -> RunResult:
    return RUNNERS[config.experiment](config)


def _fmt(x: float) -> str:
    """Decimal formatting with an 'inf' sentinel (never a float inf)."""
    return "inf" if math.isinf(x) else repr(float(x))


def csv_lines(result: RunResult, timestamp: bool = True) -> list[str]:
    """CSV report; first line is a timestamp comment, excluded from
    determinism comparisons.  Floats go through _fmt, everything else str."""
    lines = []
    if timestamp:
        now = datetime.datetime.now(datetime.timezone.utc).isoformat()
        lines.append(f"# generated {now}")
    lines.append(",".join(result.columns))
    for row in result.rows:
        lines.append(",".join(_fmt(x) if isinstance(x, float) else str(x)
                              for x in row))
    return lines


def write_csv(result: RunResult, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(csv_lines(result)) + "\n")


def summary(result: RunResult) -> str:
    """Row count, the share of named checks that passed, redraws, and one
    line per check with its worst value and bound."""
    passed = sum(c.passed for c in result.checks)
    lines = [f"experiment: {result.config.experiment}",
             f"trials: {len(result.rows)}",
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
