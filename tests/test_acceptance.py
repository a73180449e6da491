"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The sweeps here use the
full 1000-trial settings; the module takes about 15 s on a 2-core VM.
"""

import math
import time

import numpy as np
import pytest

from macrolab.coarsegrain import canonical_coarse_grain, product_coarse_grain
from macrolab.harness import (ExperimentConfig, csv_lines, run_experiment)
from macrolab.hypotest import np_optimal_test, stein_rate_series
from macrolab.maxent import ObservableSet, canonical_from_lambda, fit_maxent
from macrolab.operators import random_density, random_observables
from oracles import sampled_gamma_bound, trace_distance

SZ = np.diag([1.0, -1.0]).astype(complex)
D91 = np.diag([0.9, 0.1]).astype(complex)
UNIF = np.diag([0.5, 0.5]).astype(complex)
KL_TARGET = 0.3680642


def checks(result):
    return {c.name: c for c in result.checks}


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def process_run(experiment_run):
    return experiment_run("process", trials=1000, dim=4, m=2, seed=42)


def test_criterion_1_extended_second_law(process_run):
    result, elapsed = process_run
    slack = checks(result)["slack"]
    ok = slack.passed and slack.value >= -1e-9 and elapsed < 120
    report(1, ok, f"slack check passed: {slack.passed}, "
                  f"min slack {slack.value:.3e}, {elapsed:.1f}s")


def test_criterion_2_second_law_specialization(process_run):
    result, _ = process_run
    worst = checks(result)["second_law"].value
    report(2, worst >= -1e-9, f"min uniform-reference slack {worst:.3e}")


def test_criterion_3_monotonicity(experiment_run):
    result, _ = experiment_run("monotonicity", trials=1000, seed=42)
    slack = checks(result)["slack"]
    dim = result.columns.index("dim")
    ok = (slack.passed and slack.value >= -1e-9
          and {row[dim] for row in result.rows} == {2, 3, 4})
    report(3, ok, f"slack check passed: {slack.passed}, "
                  f"min slack {slack.value:.3e}")


def test_criterion_4_product_inequalities(experiment_run):
    result, _ = experiment_run("product", trials=1000, seed=42)
    slack, marginal = checks(result)["slack"], checks(result)["marginal"]
    ok = slack.passed and marginal.passed
    report(4, ok, f"product bound holds: {slack.passed}, "
                  f"marginal bound holds: {marginal.passed}")


def test_criterion_5_lindblad(experiment_run):
    result, _ = experiment_run("lindblad", trials=1000, seed=42)
    slack = checks(result)["slack"]
    report(5, slack.passed, f"slack check passed: {slack.passed}, "
                            f"min slack {slack.value:.3e}")


def test_criterion_6_maxent_correctness():
    obs = ObservableSet(2, (SZ,))
    lam = fit_maxent(obs, [0.5]).lam[0]
    lam_ok = abs(lam - math.atanh(0.5)) < 1e-8
    worst = 0.0
    for seed in range(100):
        dim = 2 + seed % 3
        m = 1 + seed % 3
        rnd = ObservableSet(dim, tuple(random_observables(seed, dim, m)))
        target_lam = np.random.default_rng([seed, 6]).uniform(-1, 1, m)
        cs = canonical_from_lambda(rnd, target_lam)
        fitted = fit_maxent(rnd, cs.f)
        worst = max(worst, float(np.max(np.abs(fitted.lam - target_lam))))
    report(6, lam_ok and worst < 1e-7,
           f"lambda error {abs(lam - math.atanh(0.5)):.2e}, "
           f"worst round-trip error {worst:.2e}")


def test_criterion_7_neyman_pearson_exactness():
    rho = random_density(7, 3)
    equal_ok = all(abs(np_optimal_test(rho, rho, e).prob - e) < 1e-9
                   for e in (0.2, 0.5, 0.9))
    knap = 0.5 * 1 + ((0.95 - 0.9) / 0.1) * 0.5  # fractional knapsack by hand
    commuting_ok = abs(np_optimal_test(D91, UNIF, 0.95).prob - knap) < 1e-10
    a = random_density(7, 2, index=1)
    b = random_density(7, 2, index=2)
    prob = np_optimal_test(a, b, 0.6).prob
    bound = sampled_gamma_bound(a, b, 0.6, 1, trials=1000, seed=7)
    sampled_ok = bound >= prob - 1e-9
    report(7, equal_ok and commuting_ok and sampled_ok,
           f"rho=sigma exact: {equal_ok}, knapsack match: {commuting_ok}, "
           f"sampled gap {bound - prob:.2e}")


def test_criterion_8_stein_rate_trend():
    start = time.time()
    series = stein_rate_series(D91, UNIF, 0.5, 10)
    elapsed = time.time() - start
    rates = {n: rate for n, _, rate in series.rows}
    ok = (abs(rates[10] - KL_TARGET) < abs(rates[2] - KL_TARGET)
          and elapsed < 60)
    report(8, ok, f"|rate_10 - KL| = {abs(rates[10] - KL_TARGET):.4f} < "
                  f"|rate_2 - KL| = {abs(rates[2] - KL_TARGET):.4f}, "
                  f"{elapsed:.1f}s")


def test_criterion_9_kg_battery(experiment_run):
    result, _ = experiment_run("kg-checks", trials=100, seed=42, n_max=3)
    has_report = ("violation_fraction" in result.columns
                  and "min_eig_PGamma" in result.columns
                  and all(len(row) == len(result.columns)
                          for row in result.rows))
    report(9, result.all_pass and has_report,
           f"hard invariants pass: {result.all_pass}, "
           f"positivity report rows: {len(result.rows)}")


def test_criterion_10_nonlinearity_witness():
    canonical_hits = 0
    product_hits = 0
    for seed in range(200):
        obs = ObservableSet(3, tuple(random_observables(seed, 3, 1)))
        r1 = random_density(seed, 3)
        r2 = random_density(seed, 3, index=1)
        mixed = canonical_coarse_grain((r1 + r2) / 2, obs).mu
        averaged = (canonical_coarse_grain(r1, obs).mu
                    + canonical_coarse_grain(r2, obs).mu) / 2
        if trace_distance(mixed, averaged) > 1e-6:
            canonical_hits += 1
        q1 = random_density(seed, 4, index=2)
        q2 = random_density(seed, 4, index=3)
        pmixed = product_coarse_grain((q1 + q2) / 2, (2, 2))
        paveraged = (product_coarse_grain(q1, (2, 2))
                     + product_coarse_grain(q2, (2, 2))) / 2
        if trace_distance(pmixed, paveraged) > 1e-6:
            product_hits += 1
    ok = canonical_hits >= 180 and product_hits >= 180
    report(10, ok, f"canonical witness {canonical_hits}/200, "
                   f"product witness {product_hits}/200")


def test_criterion_11_determinism():
    cfg = dict(experiment="process", trials=25, dim=4, m=2, seed=42)
    body_a = csv_lines(run_experiment(ExperimentConfig(**cfg)),
                       timestamp=False)
    body_b = csv_lines(run_experiment(ExperimentConfig(**cfg)),
                       timestamp=False)
    report(11, body_a == body_b, f"{len(body_a)} CSV lines identical")
