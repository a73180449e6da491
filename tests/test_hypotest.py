import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import macrolab.hypotest as hypotest
from macrolab.entropy import relative_entropy, von_neumann
from macrolab.hypotest import (np_optimal_test, prob_eps_tensor,
                               stein_rate_series)
from macrolab.operators import (LOG_SUPPORT_RTOL, apply_channel, eig,
                                hermitian_part, random_density, random_kraus,
                                random_unitary, tensor_power)
from oracles import (classical_np_oracle, sampled_gamma_bound,
                     type_class_oracle)

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
D91 = np.diag([0.9, 0.1]).astype(complex)
UNIF = np.diag([0.5, 0.5]).astype(complex)
BAD2 = np.array([[0.5, 1], [0, 0.5]], dtype=complex)
BAD3 = np.array([[0.5, 1, 0], [0, 0.25, 0], [0, 0, 0.25]], dtype=complex)


@pytest.mark.parametrize("call", [
    lambda: np_optimal_test(BAD2, UNIF, 0.5),
    lambda: np_optimal_test(UNIF, BAD2, 0.5),
    lambda: prob_eps_tensor(BAD2, UNIF, 0.5, 3),
    lambda: prob_eps_tensor(np.eye(3) / 3, BAD3, 0.5, 2),
    lambda: von_neumann(BAD2),
    lambda: relative_entropy(BAD2, UNIF),
    lambda: relative_entropy(UNIF, BAD2),
    lambda: relative_entropy(np.stack([UNIF, BAD2]), np.stack([UNIF, UNIF])),
    lambda: relative_entropy(np.stack([UNIF, UNIF]), np.stack([D91, BAD2])),
], ids=["np-rho", "np-sigma", "tensor-qubit", "tensor-qutrit", "von-neumann",
        "rel-rho", "rel-sigma", "rel-stacked-rho", "rel-stacked-sigma"])
def test_non_hermitian_input_rejected(call):
    with pytest.raises(ValueError, match="not Hermitian"):
        call()


NEG = np.diag([-0.5, 1.5]).astype(complex)
NEG_SIGMA = "sigma is not a state: lowest eigenvalue -5"


@pytest.mark.parametrize("call, match", [
    (lambda: np_optimal_test(UNIF, NEG, 0.5), NEG_SIGMA),
    (lambda: prob_eps_tensor(UNIF, NEG, 0.5, 3), NEG_SIGMA),
    (lambda: stein_rate_series(UNIF, NEG, 0.5, 3), NEG_SIGMA),
    (lambda: np_optimal_test(2 * D91, UNIF, 0.5), "rho .*trace 2$"),
], ids=["np-sigma", "tensor-sigma", "series-sigma", "np-rho-trace"])
def test_non_state_input_rejected(call, match):
    # a negative eigenvalue of sigma used to be read as kernel, giving prob 0
    with pytest.raises(ValueError, match=match):
        call()


class TestNPOptimalTest:
    def test_equal_states(self):
        for eps in (0.1, 0.37, 1.0):
            rho = random_density(4, 3)
            assert abs(np_optimal_test(rho, rho, eps).prob - eps) < 1e-9

    def test_orthogonal_pure(self):
        assert np_optimal_test(KET0, KET1, 1.0).prob == 0.0

    def test_zero_vs_plus(self):
        # Gamma must fix |0> with eigenvalue 1; minimal <+|Gamma|+> = 1/2
        r = np_optimal_test(KET0, PLUS, 1.0)
        assert abs(r.prob - 0.5) < 1e-8
        assert r.power >= 1.0 - 1e-10

    def test_zero_vs_plus_grid_cross_check(self):
        # dense grid over 2x2 projector-plus-weight tests
        best = math.inf
        for theta in np.linspace(0, np.pi, 400):
            v = np.array([np.cos(theta), np.sin(theta)])
            proj = np.outer(v, v).astype(complex)
            for c in np.linspace(0, 1, 40):
                gamma = proj + c * (np.eye(2) - proj)
                if np.trace(KET0 @ gamma).real >= 1.0 - 1e-12:
                    best = min(best, float(np.trace(PLUS @ gamma).real))
        assert best >= np_optimal_test(KET0, PLUS, 1.0).prob - 1e-6

    def test_commuting_vs_knapsack(self):
        r = np_optimal_test(D91, UNIF, 0.95)
        assert abs(r.prob - classical_np_oracle([0.9, 0.1], [0.5, 0.5], 0.95)) \
            < 1e-10

    def test_result_invariants(self):
        for d in (2, 3, 4):
            rho = random_density(5, d)
            sigma = random_density(5, d, index=1)
            r = np_optimal_test(rho, sigma, 0.7)
            assert r.power >= 0.7 - 1e-10
            assert abs(r.power - np.trace(rho @ r.gamma_op).real) < 1e-10
            assert abs(r.prob - np.trace(sigma @ r.gamma_op).real) < 1e-10
            w = np.linalg.eigvalsh(r.gamma_op)
            assert w[0] >= -1e-10 and w[-1] <= 1 + 1e-10

    def test_result_invariants_in_sigma_kernel(self):
        # half of |0>, which sigma = |1><1| never sees, meets eps = 0.5
        r = np_optimal_test(KET0, KET1, 0.5)
        assert r.prob == 0.0 and abs(r.power - 0.5) < 1e-10
        assert abs(r.power - np.trace(KET0 @ r.gamma_op).real) < 1e-10
        assert np.allclose(r.gamma_op, 0.5 * KET0, rtol=0, atol=1e-10)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError, match="epsilon"):
            np_optimal_test(KET0, KET1, 0.0)
        with pytest.raises(ValueError, match="epsilon"):
            np_optimal_test(KET0, KET1, 1.5)

    def test_monotone_in_epsilon(self):
        rho = random_density(6, 2)
        sigma = random_density(6, 2, index=1)
        probs = [np_optimal_test(rho, sigma, e).prob
                 for e in np.arange(0.1, 1.0, 0.1)]
        for a, b in zip(probs, probs[1:]):
            assert a <= b + 1e-10

    def test_g_nonincreasing(self):
        rho = random_density(7, 3)
        sigma = random_density(7, 3, index=1)
        def g(t):
            w, v = eig(hermitian_part(rho - t * sigma))
            vp = v[:, w > 1e-10]
            return float(np.trace(vp.conj().T @ rho @ vp).real)
        vals = [g(t) for t in np.linspace(0, 5, 40)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-10

    def test_large_threshold_terminates(self):
        # threshold t = 5e4, where an absolute bisection width never closes
        sigma = np.diag([1 - 1e-5, 1e-5]).astype(complex)
        r = np_optimal_test(UNIF, sigma, 0.5)
        expected = classical_np_oracle([0.5, 0.5], [1 - 1e-5, 1e-5], 0.5)
        assert abs(r.prob - expected) <= 1e-9 * expected

    def test_search_cap_raises_diagnostic(self, monkeypatch):
        monkeypatch.setattr(hypotest, "MAX_SEARCH_STEPS", 5)
        with pytest.raises(RuntimeError, match=r"t in \[.*width.*eps 0.5"):
            np_optimal_test(UNIF, np.diag([1 - 1e-5, 1e-5]).astype(complex),
                            0.5)

    def test_data_processing(self):
        for seed in range(10):
            rho = random_density(seed, 2)
            sigma = random_density(seed, 2, index=1)
            kraus = random_kraus(seed, 2, 2)
            before = np_optimal_test(rho, sigma, 0.6).prob
            after = np_optimal_test(apply_channel(rho, kraus),
                                    apply_channel(sigma, kraus), 0.6).prob
            assert after >= before - 1e-9


class TestProbEpsTensor:
    def test_single_copy(self):
        rho = random_density(8, 2)
        sigma = random_density(8, 2, index=1)
        assert abs(prob_eps_tensor(rho, sigma, 0.4, 1)
                   - np_optimal_test(rho, sigma, 0.4).prob) < 1e-12

    def test_equal_states_five_copies(self):
        rho = random_density(9, 2)
        assert abs(prob_eps_tensor(rho, rho, 0.3, 5) - 0.3) < 1e-9

    def test_commuting_classical_oracle_n8(self):
        n = 8
        p = [0.9, 0.1]
        q = [0.5, 0.5]
        pn, qn = [], []
        for bits in range(2 ** n):
            pp, qq = 1.0, 1.0
            for k in range(n):
                b = (bits >> k) & 1
                pp *= p[b]
                qq *= q[b]
            pn.append(pp)
            qn.append(qq)
        oracle = classical_np_oracle(pn, qn, 0.5)
        assert abs(prob_eps_tensor(D91, UNIF, 0.5, n) - oracle) < 1e-9


class TestSteinRateSeries:
    def test_equal_states_closed_form(self):
        rho = random_density(10, 2)
        series = stein_rate_series(rho, rho, 0.4, 5)
        for n, prob, rate in series.rows:
            assert abs(rate - (-math.log(0.4) / n)) < 1e-8
        assert abs(series.rel_entropy) < 1e-10

    def test_rate_trend_toward_kl(self):
        series = stein_rate_series(D91, UNIF, 0.5, 10)
        target = 0.3680642
        rates = {n: rate for n, _, rate in series.rows}
        assert abs(rates[10] - target) < abs(rates[2] - target)
        assert abs(series.rel_entropy - target) < 1e-7

    def test_orthogonal_pure_inf_sentinel(self):
        series = stein_rate_series(KET0, KET1, 1.0, 3)
        for _, prob, rate in series.rows:
            assert prob == 0.0
            assert math.isinf(rate)


class TestSampledGammaBound:
    def test_upper_bound(self):
        rho = random_density(11, 2)
        sigma = random_density(11, 2, index=1)
        prob = np_optimal_test(rho, sigma, 0.6).prob
        bound = sampled_gamma_bound(rho, sigma, 0.6, 1, trials=200, seed=11)
        assert bound >= prob - 1e-9

    def test_equal_states(self):
        rho = random_density(12, 2)
        assert sampled_gamma_bound(rho, rho, 0.5, 1, trials=50, seed=12) \
            >= 0.5 - 1e-9

    def test_optimality_gap_nonnegative(self):
        rho = random_density(13, 2)
        sigma = random_density(13, 2, index=1)
        prob = np_optimal_test(rho, sigma, 0.5).prob
        bound = sampled_gamma_bound(rho, sigma, 0.5, 1, trials=500, seed=13)
        assert bound - prob >= -1e-9


def diag_pair(p, q):
    return (np.diag([p, 1 - p]).astype(complex),
            np.diag([q, 1 - q]).astype(complex))


def rel_err(value, expected):
    return abs(value - expected) / abs(expected)


class TestSchurWeylBlocks:
    """The qubit block route against independent oracles."""

    @pytest.mark.parametrize("seed", [42, 7])
    def test_matches_dense_non_commuting(self, seed):
        rho = random_density(seed, 2)
        sigma = random_density(seed, 2, index=1)
        for n, eps_values in ((2, (0.2, 0.5, 0.9)), (5, (0.2, 0.5, 0.9)),
                              (7, (0.5,))):
            rho_n, sigma_n = tensor_power(rho, n), tensor_power(sigma, n)
            for eps in eps_values:
                dense = np_optimal_test(rho_n, sigma_n, eps).prob
                assert rel_err(prob_eps_tensor(rho, sigma, eps, n),
                               dense) <= 1e-10

    @pytest.mark.parametrize("p, q", [(0.9, 0.5), (0.6, 0.45), (0.3, 0.5),
                                      (0.9, 0.1)])
    def test_commuting_matches_type_classes(self, p, q):
        rho, sigma = diag_pair(p, q)
        for n in (1, 4, 17, 40):
            for eps in (0.2, 0.5, 0.9):
                assert rel_err(prob_eps_tensor(rho, sigma, eps, n),
                               type_class_oracle(p, q, n, eps)) <= 1e-9

    def test_commuting_matches_type_classes_n120(self):
        rho, sigma = diag_pair(0.9, 0.5)
        assert rel_err(prob_eps_tensor(rho, sigma, 0.5, 120),
                       type_class_oracle(0.9, 0.5, 120, 0.5)) <= 1e-9

    def test_rotated_commuting_pair(self):
        # a shared eigenbasis off the computational one
        u = random_unitary(3, 2)
        rho = u @ np.diag([0.6, 0.4]) @ u.conj().T
        sigma = u @ np.diag([0.45, 0.55]) @ u.conj().T
        for n in (9, 60):
            assert rel_err(prob_eps_tensor(rho, sigma, 0.5, n),
                           type_class_oracle(0.6, 0.45, n, 0.5)) <= 1e-9

    def test_threshold_beyond_float_range(self):
        # only the all-first type meets eps; its likelihood ratio is 2e310
        rho, sigma = diag_pair(0.5, 1e-11)
        with pytest.raises(RuntimeError, match="float range.*eps"):
            prob_eps_tensor(rho, sigma, 0.5 ** 29, 29)

    def test_eps_one_full_rank(self):
        # power 1 needs the identity test; the threshold is 1e-10, far below 1
        rho = np.diag([0.005, 0.995]).astype(complex)
        assert abs(prob_eps_tensor(rho, UNIF, 1.0, 5) - 1.0) < 1e-12

    def test_equal_states_n50(self):
        rho = random_density(5, 2)
        assert abs(prob_eps_tensor(rho, rho, 0.37, 50) - 0.37) < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 12.0), st.floats(0.0, 12.0), st.integers(1, 24),
           st.floats(0.01, 0.99))
    def test_extreme_commuting_spectra(self, p_exp, q_exp, n, eps):
        # smallest eigenvalues from 1 down to 1e-12; the search terminates by
        # its step cap whatever the threshold, so no wall-clock bound is set
        p, q = 10.0 ** -p_exp / 2, 10.0 ** -q_exp / 2
        # thresholds are products of n per-copy likelihood ratios; keep them
        # inside the float range (test_threshold_beyond_float_range)
        assume(n * math.log(max(p / q, (1 - p) / (1 - q))) < 700)
        rho, sigma = diag_pair(p, q)
        prob = prob_eps_tensor(rho, sigma, eps, n)
        # sigma's support is decided on one copy: an eigenvalue below the
        # relative cutoff is 0, which makes prob 0 when rho's mass there
        # meets eps
        if q <= LOG_SUPPORT_RTOL * (1 - q):
            q = 0.0
        expected = type_class_oracle(p, q, n, eps)
        assert abs(prob - expected) <= 1e-9 * expected

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.0, 12.0), st.floats(0.0, 12.0), st.integers(0, 10**6),
           st.integers(1, 5), st.floats(0.01, 0.99))
    def test_extreme_spectra_match_dense(self, p_exp, q_exp, seed, n, eps):
        q = 10.0 ** -q_exp / 2
        # the dense test applies the support cutoff to the n-copy sigma, the
        # block route to one copy; they agree where no n-copy eigenvalue is cut
        assume((q / (1 - q)) ** n > LOG_SUPPORT_RTOL)
        rho, sigma = diag_pair(10.0 ** -p_exp / 2, q)
        u = random_unitary(seed, 2)
        sigma = u @ sigma @ u.conj().T
        dense = np_optimal_test(tensor_power(rho, n), tensor_power(sigma, n),
                                eps).prob
        block = prob_eps_tensor(rho, sigma, eps, n)
        assert 0.0 <= block <= eps + 1e-12
        # eigenvectors in the computational basis carry absolute rounding, so
        # probabilities far below 1 agree to an absolute floor, not relatively
        assert abs(block - dense) <= 1e-9 * dense + 1e-14


class TestGeneralSchurWeylBlocks:
    """The blocks (f^lam, pi_lam(rho), pi_lam(sigma)) in every dimension."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_dimension_and_trace(self, d):
        rho = random_density(20 + d, d)
        sigma = random_density(20 + d, d, index=1)
        r, s, _ = hypotest._sigma_basis(rho, sigma)
        for n in range(1, 9):
            blocks = hypotest._schur_weyl_blocks(r, s, n)
            assert sum(m * r.shape[0] for m, r, _ in blocks) == d ** n
            for total in (sum(b[0] * np.trace(b[1]).real for b in blocks),
                          sum(b[0] * np.sum(b[2]) for b in blocks)):
                assert abs(total - 1.0) <= 1e-12

    def test_each_threshold_is_solved_once(self, monkeypatch):
        # a point solves sigma once, then each block once per threshold the
        # search splits, t = 0 included; a series solves sigma once in all
        rho, sigma = random_density(42, 3), random_density(42, 3, index=1)
        r, s, _ = hypotest._sigma_basis(rho, sigma)
        solved = []
        monkeypatch.setattr(hypotest, "eig",
                            lambda h: solved.append(h) or eig(h))
        for n in (1, 3, 5):
            sizes = [b[1].shape[0]
                     for b in hypotest._schur_weyl_blocks(r, s, n)]
            solved.clear()
            prob_eps_tensor(rho, sigma, 0.5, n)
            assert np.array_equal(solved[0], sigma)
            b = len(sizes)
            splits = [solved[i:i + b] for i in range(1, len(solved), b)]
            assert len(solved) == 1 + b * len(splits)
            assert all([h.shape[0] for h in split] == sizes
                       for split in splits)
            assert len({b"".join(h.tobytes() for h in split)
                        for split in splits}) == len(splits)
        solved.clear()
        series = stein_rate_series(rho, sigma, 0.5, 5)
        assert sum(h.shape == sigma.shape and np.array_equal(h, sigma)
                   for h in solved) == 1
        assert [prob for _, prob, _ in series.rows] == [
            prob_eps_tensor(rho, sigma, 0.5, n) for n in range(1, 6)]

    @pytest.mark.parametrize("d, seed, n_max", [(3, 42, 5), (3, 7, 5),
                                                (4, 42, 3)])
    def test_matches_dense_non_commuting(self, d, seed, n_max):
        rho = random_density(seed, d)
        sigma = random_density(seed, d, index=1)
        for n in range(1, n_max + 1):
            rho_n, sigma_n = tensor_power(rho, n), tensor_power(sigma, n)
            for eps in (0.2, 0.5, 0.9):
                dense = np_optimal_test(rho_n, sigma_n, eps).prob
                assert rel_err(prob_eps_tensor(rho, sigma, eps, n),
                               dense) <= 1e-10

    @pytest.mark.parametrize("p, q", [((0.5, 0.3, 0.2), (0.2, 0.3, 0.5)),
                                      ((0.7, 0.2, 0.1), (0.4, 0.35, 0.25))])
    def test_commuting_qutrits_match_type_classes(self, p, q):
        u = random_unitary(4, 3)     # a shared eigenbasis off the standard one
        for rho, sigma in ((np.diag(p).astype(complex),
                            np.diag(q).astype(complex)),
                           (u @ np.diag(p) @ u.conj().T,
                            u @ np.diag(q) @ u.conj().T)):
            for n in (1, 4, 7):
                for eps in (0.2, 0.5, 0.9):
                    assert rel_err(prob_eps_tensor(rho, sigma, eps, n),
                                   type_class_oracle(p, q, n, eps)) <= 1e-9

    def test_commuting_qutrits_beyond_dim_cap(self):
        # 3^10 = 59049 > DIM_CAP: no dense tensor power is built
        p, q = (0.5, 0.3, 0.2), (0.2, 0.3, 0.5)
        rho, sigma = np.diag(p).astype(complex), np.diag(q).astype(complex)
        assert rel_err(prob_eps_tensor(rho, sigma, 0.5, 10),
                       type_class_oracle(p, q, 10, 0.5)) <= 1e-9

    def test_sigma_support_decided_on_one_copy(self):
        # (1e-5)^3 is far below the relative cutoff on 3 copies, not on one;
        # the best test takes 0.02 * 27 of |000> in sigma's eigenbasis
        u = random_unitary(0, 3)
        sigma = u @ np.diag([1e-5, 0.5 - 5e-6, 0.5 - 5e-6]) @ u.conj().T
        prob = prob_eps_tensor(np.eye(3) / 3, sigma, 0.02, 3)
        assert rel_err(prob, 0.02 * 27 * 1e-15) <= 1e-9
