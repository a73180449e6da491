import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import macrolab.maxent as maxent
from macrolab.maxent import (InfeasibleTargetError, ObservableSet,
                             canonical_from_lambda, covariance, fit_maxent,
                             state_derivatives)
from macrolab.operators import (hermitian_part, random_density,
                                random_hermitian, random_observables)
from oracles import (frechet_covariance, frechet_state_derivatives, op_exp,
                     von_neumann)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def qubit_z():
    return ObservableSet(2, (SZ,))


def seeded_set(seed, dim, m, index=0):
    return ObservableSet(dim, tuple(random_observables(seed, dim, m, index=index)))


class TestObservableSet:
    def test_rejects_identity_member(self):
        with pytest.raises(ValueError, match="dependent"):
            ObservableSet(2, (np.eye(2, dtype=complex),))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="dependent"):
            ObservableSet(2, (SZ, SZ + 1e-12 * SX))

    def test_expectations(self):
        obs = qubit_z()
        np.testing.assert_allclose(obs.expectations(np.diag([0.8, 0.2])), [0.6])

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_library_draws_pass_the_entry_check(self, dim):
        # the sweeps stack random_observables without this check: the draws
        # are orthonormal to the identity (tr 1 = dim) and to each other, so
        # the Gram matrix is diag(dim, 1, ..., 1) and its condition is dim
        for m in range(1, dim * dim):
            for seed in range(4):
                obs = seeded_set(seed, dim, m, index=7 * m)
                ops = [np.eye(dim, dtype=complex), *obs.members]
                gram = np.array([[np.vdot(a, b).real for b in ops]
                                 for a in ops])
                assert np.linalg.cond(gram) <= dim * (1 + 1e-10)


class TestForwardMap:
    def test_empty_set(self):
        cs = canonical_from_lambda(ObservableSet(3, ()), [])
        np.testing.assert_allclose(cs.mu, np.eye(3) / 3, atol=1e-14)
        assert abs(cs.logZ - np.log(3)) < 1e-12

    def test_lambda_zero(self):
        cs = canonical_from_lambda(qubit_z(), [0.0])
        np.testing.assert_allclose(cs.mu, np.eye(2) / 2, atol=1e-14)
        np.testing.assert_allclose(cs.f, [0.0], atol=1e-14)

    def test_tanh_closed_form(self):
        lam = 0.5493061
        cs = canonical_from_lambda(qubit_z(), [lam])
        assert abs(cs.f[0] - np.tanh(lam)) < 1e-12
        assert abs(cs.f[0] - 0.5) < 1e-6

    def test_state_invariant(self):
        obs = seeded_set(3, 3, 2)
        cs = canonical_from_lambda(obs, [0.4, -0.2])
        a = 0.4 * obs.members[0] - 0.2 * obs.members[1]
        np.testing.assert_allclose(cs.mu, op_exp(a) / np.exp(cs.logZ),
                                   atol=1e-10)

    def test_refit_lambda_reproduces_fit(self):
        # the forward map at a fit's lambda is the fit's own last state
        cs = fit_maxent(seeded_set(4, 3, 2), [0.1, -0.2])
        again = canonical_from_lambda(cs.observables, cs.lam)
        np.testing.assert_array_equal(again.mu, cs.mu)
        np.testing.assert_array_equal(again.spectrum[0], cs.spectrum[0])
        np.testing.assert_array_equal(again.spectrum[1], cs.spectrum[1])
        np.testing.assert_array_equal(covariance(again), covariance(cs))


class TestCovariance:
    def test_qubit_at_zero(self):
        c = covariance(canonical_from_lambda(qubit_z(), [0.0]))
        np.testing.assert_allclose(c, [[1.0]], atol=1e-12)

    def test_qubit_closed_form(self):
        c = covariance(canonical_from_lambda(qubit_z(), [np.arctanh(0.5)]))
        np.testing.assert_allclose(c, [[0.75]], atol=1e-8)

    def test_finite_difference(self):
        obs = seeded_set(5, 3, 2)
        lam = np.array([0.3, -0.6])
        c = covariance(canonical_from_lambda(obs, lam))
        h = 1e-5
        for b in range(2):
            step = np.zeros(2)
            step[b] = h
            fd = (canonical_from_lambda(obs, lam + step).f
                  - canonical_from_lambda(obs, lam - step).f) / (2 * h)
            np.testing.assert_allclose(c[:, b], fd, atol=1e-6)

    def test_positive_definite(self):
        obs = seeded_set(6, 4, 3)
        c = covariance(canonical_from_lambda(obs, [0.2, 0.1, -0.4]))
        assert np.linalg.eigvalsh(c)[0] > 0

    def test_no_overflow_at_large_exponent(self):
        # exp of an eigenvalue above ~709 overflows; the forward map shifts
        # by the top eigenvalue, and so must the Kubo weights
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cs = canonical_from_lambda(qubit_z(), [800.0])
            c = covariance(cs)
        assert cs.f[0] == pytest.approx(1.0) and cs.logZ == pytest.approx(800.0)
        assert np.all(np.isfinite(c))
        np.testing.assert_allclose(c, [[0.0]], atol=1e-12)


class TestKuboTable:
    """covariance and state_derivatives against one Frechet derivative of
    exp per observable (tests/oracles.py)."""

    @staticmethod
    def check_against_frechet(cs):
        np.testing.assert_allclose(covariance(cs), frechet_covariance(cs),
                                   rtol=0, atol=1e-12)
        for got, want in zip(state_derivatives(cs),
                             frechet_state_derivatives(cs)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([2, 3, 4, 8]),
           st.integers(1, 3))
    def test_matches_frechet(self, seed, dim, m):
        obs = seeded_set(seed, dim, m)
        lam = np.random.default_rng([seed, 80]).uniform(-2, 2, m)
        self.check_against_frechet(canonical_from_lambda(obs, lam))

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_degenerate_spectrum(self, dim, m):
        # lambda = 0: A = 0, every pair takes the diagonal limit
        obs = seeded_set(dim, dim, m)
        cs = canonical_from_lambda(obs, np.zeros(m))
        self.check_against_frechet(cs)
        # trace-orthonormal, traceless observables: C = 1/dim
        np.testing.assert_allclose(covariance(cs), np.eye(m) / dim,
                                   rtol=0, atol=1e-12)


class TestFit:
    def test_target_zero(self):
        cs = fit_maxent(qubit_z(), [0.0])
        np.testing.assert_allclose(cs.lam, [0.0], atol=1e-10)
        np.testing.assert_allclose(cs.mu, np.eye(2) / 2, atol=1e-10)

    def test_atanh_closed_form(self):
        cs = fit_maxent(qubit_z(), [0.5])
        assert abs(cs.lam[0] - 0.5493061443340549) < 1e-8

    def test_infeasible_target(self):
        with pytest.raises(InfeasibleTargetError, match="diverged"):
            fit_maxent(qubit_z(), [1.5])

    def test_fit_still_live_after_the_cap_stalls(self, monkeypatch):
        monkeypatch.setattr(maxent, "FIT_MAX_ITER", 2)
        with pytest.raises(InfeasibleTargetError,
                           match="stalled .* after 2 iterations"):
            fit_maxent(ObservableSet(2, (SZ, SX)), [0.6, 0.3])

    def test_boundary_target_reports_extremal(self):
        cs = fit_maxent(qubit_z(), [1.0])
        assert cs.near_extremal
        assert not fit_maxent(qubit_z(), [0.5]).near_extremal

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 4), st.integers(1, 3))
    def test_round_trip(self, seed, dim, m):
        obs = seeded_set(seed, dim, m)
        rng = np.random.default_rng([seed, 77])
        lam = rng.uniform(-1, 1, m)
        cs = canonical_from_lambda(obs, lam)
        fitted = fit_maxent(obs, cs.f)
        assert np.max(np.abs(fitted.lam - lam)) < 1e-7

    def test_round_trip_battery(self):
        count = 0
        for seed in range(100):
            dim = 2 + seed % 3
            m = 1 + seed % 3
            obs = seeded_set(seed, dim, m)
            lam = np.random.default_rng([seed, 78]).uniform(-1, 1, m)
            cs = canonical_from_lambda(obs, lam)
            fitted = fit_maxent(obs, cs.f)
            assert np.max(np.abs(fitted.lam - lam)) < 1e-7
            count += 1
        assert count == 100

    def test_line_search_halves_a_step(self, monkeypatch):
        # a target whose fit runs to lambda ~ (44.18, 20.48)
        target = [0.4668700342055778, 0.21526602461454125]
        cs = fit_maxent(seeded_set(3, 3, 2, index=1592), target)
        np.testing.assert_allclose(cs.f, target, rtol=0, atol=1e-9)
        np.testing.assert_allclose(cs.lam, [44.18, 20.48], atol=0.01)
        # a first Newton step made 8x too long raises the dual, so the fit
        # halves it twice before it converges; a line search that gave up
        # after one try would report a stall
        calls = {"forward": 0, "newton": 0}
        forward, newton = maxent._forward, maxent._newton_step

        def counted_forward(*args):
            calls["forward"] += 1
            return forward(*args)

        def long_first_step(*args):
            calls["newton"] += 1
            step = newton(*args)
            return 8 * step if calls["newton"] == 1 else step

        monkeypatch.setattr(maxent, "_forward", counted_forward)
        monkeypatch.setattr(maxent, "_newton_step", long_first_step)
        cs = fit_maxent(ObservableSet(2, (SZ, SX)), [0.6, 0.3])
        np.testing.assert_allclose(cs.f, [0.6, 0.3], rtol=0, atol=1e-9)
        # one forward map at lambda = 0 and one per Newton step; the rest
        # are the tries after a halving
        assert calls["forward"] - 1 - calls["newton"] == 2


class TestDualConvexity:
    def test_second_difference(self):
        obs = seeded_set(9, 3, 2)
        rng = np.random.default_rng([9, 79])
        lam = rng.uniform(-1, 1, 2)
        d = rng.uniform(-1, 1, 2)
        h = 0.05
        for t in np.linspace(-0.5, 0.5, 10):
            z0 = canonical_from_lambda(obs, lam + (t - h) * d).logZ
            z1 = canonical_from_lambda(obs, lam + t * d).logZ
            z2 = canonical_from_lambda(obs, lam + (t + h) * d).logZ
            assert z0 - 2 * z1 + z2 >= -1e-9


class TestMaxEntProperty:
    def test_mu_maximizes_entropy(self):
        for seed in range(20):
            obs = seeded_set(seed, 3, 2)
            rho = random_density(seed, 3)
            cs = fit_maxent(obs, obs.expectations(rho))
            # perturbation orthogonal to identity and all observables keeps
            # the constraints fixed
            b = random_hermitian(seed, 3, index=5)
            basis = [np.eye(3, dtype=complex) / np.sqrt(3)] + list(obs.members)
            for g in basis:
                b = b - np.trace(g.conj().T @ b).real * g
            b = hermitian_part(b)
            scale = 0.2 / max(np.abs(np.linalg.eigvalsh(b)))
            competitor = cs.mu + scale * b
            wmin = np.linalg.eigvalsh(competitor)[0]
            if wmin < 1e-6:
                competitor = cs.mu + 0.5 * scale * b
            np.testing.assert_allclose(obs.expectations(competitor), cs.f,
                                       atol=1e-8)
            assert von_neumann(cs.mu) >= von_neumann(competitor) - 1e-9


class TestStateDerivatives:
    def test_qubit_closed_form(self):
        derivs = state_derivatives(canonical_from_lambda(qubit_z(), [0.0]))
        np.testing.assert_allclose(derivs[0], SZ / 2, atol=1e-10)

    def test_ill_conditioned_covariance_raises(self):
        # covariance condition about 1.3e12 at lambda = (16, 0)
        cs = canonical_from_lambda(ObservableSet(2, (SZ, SX)), [16, 0])
        with pytest.raises(ValueError, match="ill-conditioned"):
            state_derivatives(cs)

    def test_traceless_and_dual(self):
        obs = seeded_set(15, 3, 2)
        cs = canonical_from_lambda(obs, [0.3, -0.1])
        derivs = state_derivatives(cs)
        for a, da in enumerate(derivs):
            assert abs(np.trace(da).real) < 1e-10
            for c, gc in enumerate(obs.members):
                assert abs(np.trace(gc @ da).real - (c == a)) < 1e-8
