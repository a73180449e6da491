"""Experiment orchestration: seeded inequality sweeps and report emission.

Each experiment draws everything it needs from per-trial RNG streams derived
from (seed, trial index), so results are identical regardless of execution
order.  Records serialize to CSV with the fixed column set
trial, dim, m, S_before, S_after, slack, pass.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, field

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


@dataclass
class TrialRecord:
    trial: int
    dim: int
    m: int
    s_before: float
    s_after: float
    slack_tol: float
    aux: dict = field(default_factory=dict)

    @property
    def slack(self) -> float:
        return self.s_before - self.s_after

    @property
    def passed(self) -> bool:
        return self.slack >= -self.slack_tol


@dataclass
class RunResult:
    config: ExperimentConfig
    records: list[TrialRecord]
    redraws: int = 0
    extra_pass: bool = True     # secondary checks folded into the run
    csv_rows: list[dict] | None = None  # overrides the default CSV (stein/kg)
    csv_columns: tuple[str, ...] | None = None

    @property
    def pass_fraction(self) -> float:
        if not self.records:
            return 1.0
        return sum(r.passed for r in self.records) / len(self.records)

    @property
    def min_slack(self) -> float:
        return min((r.slack for r in self.records), default=0.0)

    @property
    def all_pass(self) -> bool:
        return self.pass_fraction == 1.0 and self.extra_pass


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
            return canonical_coarse_grain(rho, obs, tol=1e-10), redraws
        except InfeasibleTargetError:
            redraws += 1
    raise InfeasibleTargetError(
        f"could not draw a feasible target in trial {trial}")


def run_process(config: ExperimentConfig) -> RunResult:
    """Reproducible-process sweep: two preparations, one shared unitary.

    Checks that relative entropy between the two final macrostates does not
    exceed that between the initial ones, and (aux) the same for the uniform
    reference state.
    """
    records, redraws = [], 0
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
        records.append(TrialRecord(
            trial=trial, dim=d, m=config.m, s_before=s_before,
            s_after=s_after, slack_tol=config.slack_tol,
            aux={"uniform_before": relative_entropy(mu_g.mu, uniform),
                 "uniform_after": relative_entropy(mu_f.mu, uniform)}))
    extra = all(r.aux["uniform_before"] - r.aux["uniform_after"]
                >= -config.slack_tol for r in records)
    return RunResult(config=config, records=records, redraws=redraws,
                     extra_pass=extra)


def run_monotonicity(config: ExperimentConfig) -> RunResult:
    """Canonical coarse graining can only shrink relative entropy."""
    records, redraws = [], 0
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
        records.append(TrialRecord(
            trial=trial, dim=d, m=m,
            s_before=relative_entropy(rho, sigma),
            s_after=relative_entropy(cg_rho.mu, cg_sigma.mu),
            slack_tol=config.slack_tol))
    return RunResult(config=config, records=records, redraws=redraws)


def run_product(config: ExperimentConfig) -> RunResult:
    """Correlation removal can only shrink relative entropy.

    Also records (aux) the weaker single-marginal bound
    S(rho_A || sigma_A) <= S(rho_AB || sigma_AB).
    """
    dims = config.dims if config.dims is not None else (2, 2)
    d = dims[0] * dims[1]
    records = []
    extra = True
    for trial in range(config.trials):
        rho = random_density(config.seed, d, index=2 * trial)
        sigma = random_density(config.seed, d, index=2 * trial + 1)
        s_full = relative_entropy(rho, sigma)
        s_prod = relative_entropy(product_coarse_grain(rho, dims),
                                  product_coarse_grain(sigma, dims))
        s_marg = relative_entropy(partial_trace(rho, dims, "A"),
                                  partial_trace(sigma, dims, "A"))
        records.append(TrialRecord(
            trial=trial, dim=d, m=0, s_before=s_full, s_after=s_prod,
            slack_tol=config.slack_tol, aux={"marginal_after": s_marg}))
        extra = extra and (s_full - s_marg >= -config.slack_tol)
    return RunResult(config=config, records=records, extra_pass=extra)


def run_lindblad(config: ExperimentConfig) -> RunResult:
    """Lindblad monotonicity under random CPTP channels."""
    records = []
    for trial in range(config.trials):
        d = _trial_dim(config, trial)
        n_kraus = 1 + trial % 4
        kraus = random_kraus(config.seed, d, n_kraus, index=trial)
        rho = random_density(config.seed, d, index=2 * trial)
        sigma = random_density(config.seed, d, index=2 * trial + 1)
        records.append(TrialRecord(
            trial=trial, dim=d, m=n_kraus,
            s_before=relative_entropy(rho, sigma),
            s_after=relative_entropy(apply_channel(rho, kraus),
                                     apply_channel(sigma, kraus)),
            slack_tol=config.slack_tol))
    return RunResult(config=config, records=records)


# Benchmark pair for the error-rate study: classical KL is known in closed
# form, so the rate trend can be compared against an exact target.
STEIN_RHO = np.diag([0.9, 0.1]).astype(complex)
STEIN_SIGMA = np.diag([0.5, 0.5]).astype(complex)


def run_stein(config: ExperimentConfig) -> RunResult:
    """Finite-copy error-rate series for the diagonal benchmark pair."""
    series = stein_rate_series(STEIN_RHO, STEIN_SIGMA, config.epsilon,
                               config.n_max)
    rows = []
    for n, prob, rate in series.rows:
        gap = math.inf if math.isinf(rate) else abs(rate - series.rel_entropy)
        rows.append({"N": n, "prob": _fmt(prob), "rate": _fmt(rate),
                     "relative_entropy": _fmt(series.rel_entropy),
                     "gap": _fmt(gap)})
    # hard invariant: the rate approaches the relative entropy
    first_gap = abs(series.rows[0][2] - series.rel_entropy)
    last_gap = abs(series.rows[-1][2] - series.rel_entropy)
    ok = len(series.rows) < 2 or last_gap < first_gap
    return RunResult(config=config, records=[], extra_pass=ok, csv_rows=rows,
                     csv_columns=("N", "prob", "rate", "relative_entropy",
                                  "gap"))


def run_kg_checks(config: ExperimentConfig) -> RunResult:
    """Kawasaki-Gunton invariant battery plus the positivity diagnostic.

    Hard checks (defining property, linearity, idempotency, expectation
    reproduction, pairing slack, fixed-point gamma) run over dims {2, 3},
    m in {1, 2}, N in {1, ..., min(n_max, 3)}; the positivity measurement is
    reported but never asserted.
    """
    seed = config.seed
    tol = config.slack_tol
    rows = []
    ok = True
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
                ok &= defect < tol
                # linearity
                lin = kg_apply_observable(kg_rho, 0.3 * gamma_op + 0.6 * gamma_op2, n) \
                    - 0.3 * p_gamma - 0.6 * kg_apply_observable(kg_rho, gamma_op2, n)
                ok &= float(np.max(np.abs(lin))) < 1e-10
                # idempotency across different expectation values
                ps_gamma = kg_apply_observable(kg_sigma, gamma_op, n)
                idem = kg_apply_observable(kg_rho, ps_gamma, n) - ps_gamma
                ok &= float(np.linalg.norm(idem)) < tol
                # expectation reproduction by the adjoint
                tau = random_density(seed, dim_n, index=300 + n)
                lifted = kg_apply_state(kg_rho, tau, n)
                for a in range(m):
                    gbar = kg_rho.lifted_observable(a, n)
                    ok &= abs(np.trace(gbar @ lifted)
                              - np.trace(gbar @ tau)) < tol
                # pairing-constraint slack for the eps/eps' choices
                mu_rho_n = tensor_power(kg_rho.mu, n)
                q_pairing = float((np.trace(mu_rho_n @ gamma_op)
                                   - np.trace(mu_rho_n @ kg_apply_observable(
                                       kg_sigma, gamma_op, n))).real)
                ok &= eps_prime - q_pairing >= eps - tol
                # fixed point: gamma vanishes at rho = mu_f
                g_fixed = gamma_n(kg_rho, kg_rho.mu, n)
                ok &= g_fixed < 1e-10
                report = positivity_diagnostic(kg_rho, n,
                                               trials=min(config.trials, 100),
                                               seed=seed)
                rows.append({"N": n, "dim": d, "m": m,
                             "gamma_N": _fmt(gammas[n]),
                             "min_eig_PGamma": _fmt(report.min_eig),
                             "violation_fraction": _fmt(report.violation_fraction)})
    return RunResult(config=config, records=[], extra_pass=bool(ok),
                     csv_rows=rows,
                     csv_columns=("N", "dim", "m", "gamma_N", "min_eig_PGamma",
                                  "violation_fraction"))


RUNNERS = {"process": run_process, "monotonicity": run_monotonicity,
           "product": run_product, "lindblad": run_lindblad,
           "stein": run_stein, "kg-checks": run_kg_checks}


def run_experiment(config: ExperimentConfig) -> RunResult:
    return RUNNERS[config.experiment](config)


def _fmt(x: float) -> str:
    """Decimal formatting with an 'inf' sentinel (never a float inf)."""
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return repr(float(x))


def csv_lines(result: RunResult, timestamp: bool = True) -> list[str]:
    """CSV report; first line is a timestamp comment, excluded from
    determinism comparisons."""
    lines = []
    if timestamp:
        now = datetime.datetime.now(datetime.timezone.utc).isoformat()
        lines.append(f"# generated {now}")
    if result.csv_rows is not None:
        cols = result.csv_columns
        lines.append(",".join(cols))
        for row in result.csv_rows:
            lines.append(",".join(str(row[c]) for c in cols))
        return lines
    lines.append("trial,dim,m,S_before,S_after,slack,pass")
    for r in result.records:
        lines.append(",".join([str(r.trial), str(r.dim), str(r.m),
                               _fmt(r.s_before), _fmt(r.s_after),
                               _fmt(r.slack), "1" if r.passed else "0"]))
    return lines


def write_csv(result: RunResult, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(csv_lines(result)) + "\n")


def summary(result: RunResult) -> str:
    lines = [f"experiment: {result.config.experiment}",
             f"trials: {len(result.records) or len(result.csv_rows or [])}",
             f"pass fraction: {result.pass_fraction:.4f}",
             f"min slack: {result.min_slack:.3e}",
             f"redraws: {result.redraws}",
             f"hard checks pass: {result.all_pass}"]
    if result.redraws and result.records and \
            result.redraws / len(result.records) >= 0.05:
        lines.append("WARNING: redraw rate >= 5%; run flagged")
    return "\n".join(lines)
