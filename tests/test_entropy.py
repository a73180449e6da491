import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from macrolab.entropy import relative_entropy
from macrolab.operators import (apply_channels, random_density, random_kraus,
                                random_unitary)
from oracles import op_log_on_support, trace_distance, von_neumann


class TestVonNeumann:
    def test_pure_state(self):
        assert von_neumann(np.diag([1.0, 0.0]).astype(complex)) == 0.0

    def test_maximally_mixed(self):
        assert abs(von_neumann(np.eye(4) / 4) - math.log(4)) < 1e-12
        assert abs(von_neumann(np.eye(4) / 4) - 1.3862944) < 1e-7

    def test_binary_entropy(self):
        rho = np.diag([0.9, 0.1]).astype(complex)
        assert abs(von_neumann(rho) - 0.3250830) < 1e-7

    def test_support_matches_log_on_support(self):
        # one eigenvalue below the relative support cutoff, one exact zero
        u = random_unitary(3, 4)
        rho = u @ np.diag([0.6, 0.4 - 1e-13, 1e-13, 0.0]) @ u.conj().T
        via_log = -np.trace(rho @ op_log_on_support(rho)).real
        assert abs(von_neumann(rho) - via_log) < 1e-14


class TestRelativeEntropy:
    def test_self(self):
        rho = random_density(1, 3)
        assert abs(relative_entropy(rho, rho)) < 1e-10

    def test_against_uniform(self):
        rho = random_density(2, 4)
        expected = math.log(4) - von_neumann(rho)
        assert abs(relative_entropy(rho, np.eye(4) / 4) - expected) < 1e-10

    def test_classical_kl(self):
        rho = np.diag([0.9, 0.1]).astype(complex)
        sigma = np.diag([0.5, 0.5]).astype(complex)
        assert abs(relative_entropy(rho, sigma) - 0.3680642) < 1e-7

    def test_disjoint_support(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        sigma = np.diag([0.0, 1.0]).astype(complex)
        assert math.isinf(relative_entropy(rho, sigma))
        # a leak of 1e-6 into sigma's kernel is a support violation as well
        leak = np.diag([1 - 1e-6, 1e-6]).astype(complex)
        assert math.isinf(relative_entropy(leak, rho))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_unitary_invariance(self, seed):
        rho = random_density(seed, 3)
        sigma = random_density(seed, 3, index=1)
        u = random_unitary(seed, 3)
        before = relative_entropy(rho, sigma)
        after = relative_entropy(u @ rho @ u.conj().T, u @ sigma @ u.conj().T)
        assert abs(before - after) < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_nonnegative(self, seed):
        rho = random_density(seed, 3)
        sigma = random_density(seed, 3, index=1)
        val = relative_entropy(rho, sigma)
        assert val >= -1e-10
        if val < 1e-8:
            assert trace_distance(rho, sigma) < 1e-3

    def test_diagonal_reduction(self):
        p = np.array([0.5, 0.3, 0.2])
        q = np.array([0.2, 0.5, 0.3])
        kl = float(np.sum(p * np.log(p / q)))
        val = relative_entropy(np.diag(p).astype(complex),
                               np.diag(q).astype(complex))
        assert abs(val - kl) < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 4))
    def test_lindblad_monotonicity(self, seed, rank):
        rho = random_density(seed, 3)
        sigma = random_density(seed, 3, index=1)
        kraus = random_kraus(seed, 3, rank)
        out = apply_channels(np.stack([rho, sigma]), np.stack([kraus, kraus]))
        assert relative_entropy(*out) <= relative_entropy(rho, sigma) + 1e-9


class TestStackedRelativeEntropy:
    def test_inf_sentinel_per_element(self):
        ket0 = np.diag([1.0, 0.0]).astype(complex)
        ket1 = np.diag([0.0, 1.0]).astype(complex)
        rho = random_density(4, 2)
        sigma = random_density(4, 2, index=1)
        out = relative_entropy(np.stack([ket0, rho]), np.stack([ket1, sigma]))
        assert math.isinf(out[0]) and out[1] == relative_entropy(rho, sigma)

    def test_non_psd_is_reported_for_the_first_bad_pair(self):
        rho = random_density(5, 2)
        neg = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="non-PSD.*-5.000e-01"):
            relative_entropy(np.stack([rho, neg]), np.stack([rho, rho]))
        with pytest.raises(ValueError, match="non-PSD"):
            relative_entropy(neg, rho)
        # a non-PSD sigma is refused before the kernel leak is read, though
        # rho has weight on the eigenvector of its negative eigenvalue
        with pytest.raises(ValueError, match="non-PSD sigma"):
            relative_entropy(rho, neg)
        with pytest.raises(ValueError, match="non-PSD sigma"):
            relative_entropy(np.stack([rho, rho]), np.stack([neg, rho]))
