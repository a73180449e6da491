"""Sweep failures certified in 50-digit arithmetic.

The monotonicity and product sweeps draw sigma as an arbitrary state, and
for such sigma neither inequality holds in general.  These tests recompute
failing trials from the same float64 inputs in mpmath and show that the
negative slack is a property of the inputs, not of float64 rounding.
"""

import mpmath
import numpy as np
import pytest

from macrolab.harness import ExperimentConfig, run_experiment
from macrolab.maxent import ObservableSet, covariance, fit_maxent
from macrolab.operators import random_density, random_observables

DIGITS = 50


def mp_matrix(a):
    """Exact copy of a float64 matrix."""
    return mpmath.matrix([[mpmath.mpc(float(x.real), float(x.imag))
                           for x in row] for row in np.asarray(a)])


def mp_trace(a):
    return mpmath.fsum(a[i, i] for i in range(a.rows))


def mp_rel_entropy(rho, sigma):
    """tr rho (log rho - log sigma), both full rank."""
    return mp_trace(rho * (mpmath.logm(rho) - mpmath.logm(sigma))).real


def mp_partial_traces(rho, da, db):
    ra = mpmath.matrix(da, da)
    rb = mpmath.matrix(db, db)
    for a in range(da):
        for c in range(da):
            ra[a, c] = mpmath.fsum(rho[a * db + b, c * db + b]
                                   for b in range(db))
    for b in range(db):
        for d in range(db):
            rb[b, d] = mpmath.fsum(rho[a * db + b, a * db + d]
                                   for a in range(da))
    return ra, rb


def mp_kron(a, b):
    out = mpmath.matrix(a.rows * b.rows, a.cols * b.cols)
    for i in range(a.rows):
        for j in range(a.cols):
            for k in range(b.rows):
                for m in range(b.cols):
                    out[i * b.rows + k, j * b.cols + m] = a[i, j] * b[k, m]
    return out


def sweep_row(experiment, seed, trial):
    result = run_experiment(ExperimentConfig(experiment=experiment,
                                             trials=trial + 1, seed=seed))
    return next(r for r in result.rows if r[0] == trial)


@pytest.mark.parametrize("seed, trial, slack", [(0, 745, -0.0341),
                                                 (3, 694, -0.1829)])
def test_product_violation_is_real(seed, trial, slack):
    row = sweep_row("product", seed, trial)
    rho = random_density(seed, 4, index=2 * trial)
    sigma = random_density(seed, 4, index=2 * trial + 1)
    with mpmath.workdps(DIGITS):
        r, s = mp_matrix(rho), mp_matrix(sigma)
        s_full = mp_rel_entropy(r, s)
        s_prod = mp_rel_entropy(mp_kron(*mp_partial_traces(r, 2, 2)),
                                mp_kron(*mp_partial_traces(s, 2, 2)))
        exact = s_full - s_prod
    assert float(exact) < 0
    assert float(exact) == pytest.approx(slack, abs=1e-4)
    assert abs(float(exact) - row[5]) < 1e-12
    assert abs(float(s_full) - row[3]) < 1e-12


def mp_canonical(members, lam):
    """(mu, log Z, A) of exp(A) / Z with A = sum lam_a G_a."""
    a = sum((mpmath.mpf(x) * g for x, g in zip(lam, members)),
            mpmath.matrix(members[0].rows, members[0].cols))
    e = mpmath.expm(a)
    z = mp_trace(e).real
    return e / z, mpmath.log(z), a


def mp_fit(obs, members, target, steps=6):
    """Polish the float64 fit: Newton steps on f(lambda) = target with the
    float64 covariance as Jacobian; each step gains about 13 digits."""
    cs = fit_maxent(obs, [float(t) for t in target])
    jac_inv = mpmath.matrix(np.linalg.inv(covariance(cs)).tolist())
    lam = mpmath.matrix([mpmath.mpf(float(x)) for x in cs.lam])
    for _ in range(steps):
        mu = mp_canonical(members, lam)[0]
        resid = mpmath.matrix([target[a] - mp_trace(g * mu).real
                               for a, g in enumerate(members)])
        lam = lam + jac_inv * resid
    mu, logz, a = mp_canonical(members, lam)
    resid = max(abs(target[k] - mp_trace(g * mu).real)
                for k, g in enumerate(members))
    return mu, logz, a, resid


def test_monotonicity_violation_is_real():
    seed, trial, d, m = 7, 538, 3, 2
    row = sweep_row("monotonicity", seed, trial)
    gs = random_observables(seed, d, m, index=trial)
    obs = ObservableSet(d, tuple(gs))
    rho = random_density(seed, d, index=2 * trial)
    sigma = random_density(seed, d, index=2 * trial + 1)
    with mpmath.workdps(DIGITS):
        members = [mp_matrix(g) for g in gs]
        r, s = mp_matrix(rho), mp_matrix(sigma)
        s_full = mp_rel_entropy(r, s)
        fits = []
        for state in (r, s):
            target = [mp_trace(g * state).real for g in members]
            fits.append(mp_fit(obs, members, target))
        (mu_r, logz_r, a_r, res_r), (_, logz_s, a_s, res_s) = fits
        # log mu = A - log Z, so no matrix log is needed for the canonical pair
        s_cg = mp_trace(mu_r * (a_r - a_s)).real - logz_r + logz_s
        exact = s_full - s_cg
        assert max(res_r, res_s) < mpmath.mpf(10) ** -40
    assert float(exact) < 0
    assert float(exact) == pytest.approx(-0.1660, abs=1e-4)
    assert abs(float(exact) - row[5]) < 1e-9
