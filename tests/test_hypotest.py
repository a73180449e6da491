import itertools
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import macrolab.entropy as entropy
import macrolab.hypotest as hypotest
from macrolab.entropy import relative_entropy
from macrolab.hypotest import (np_optimal_test, prob_eps_tensor,
                               stein_rate_series)
from macrolab.operators import (LOG_SUPPORT_RTOL, apply_channels, eig,
                                hermitian_part, random_density, random_kraus,
                                random_unitary, tensor_power)
from oracles import (classical_np_oracle, sampled_gamma_bound,
                     type_class_oracle, von_neumann)

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
D91 = np.diag([0.9, 0.1]).astype(complex)
D19 = np.diag([0.1, 0.9]).astype(complex)
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
            out = apply_channels(np.stack([rho, sigma]),
                                 np.stack([kraus, kraus]))
            after = np_optimal_test(*out, 0.6).prob
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

    def test_rel_entropy_is_relative_entropy_bit_for_bit(self):
        # the two used to differ in the last bits on 256 of these 600 pairs
        for d in (2, 3, 4):
            for seed in range(200):
                rho = random_density(seed, d)
                sigma = random_density(seed, d, index=1)
                assert (hypotest._sigma_basis(rho, sigma)[3]
                        == relative_entropy(rho, sigma))
        for seed in range(3):
            rho, sigma = random_density(seed, 3), random_density(seed, 3, 1)
            assert (stein_rate_series(rho, sigma, 0.5, 2).rel_entropy
                    == relative_entropy(rho, sigma))

    @pytest.mark.parametrize("scale", [1 - 5e-11, 1 + 9e-11])
    @pytest.mark.parametrize("d, n_max", [(2, 10), (3, 5)])
    def test_trace_off_one_is_divided_out(self, d, n_max, scale):
        # the state check accepts these traces, but rho^(x)N then misses 1
        # by more than the search's power tolerance; no end of the bracket
        # was feasible and the search read t = 0's test, prob near 1: 3e5x
        # the answer at d = 3, N = 5, eps 0.1, and 356x at d = 2, N = 8
        rho, sigma = random_density(42, d), random_density(42, d, index=1)
        for eps in (0.1, 0.5, 0.9):
            exact = stein_rate_series(rho, sigma, eps, n_max).rows
            scaled = stein_rate_series(scale * rho, sigma, eps, n_max).rows
            for (n, expected, _), (_, prob, _) in zip(exact, scaled):
                assert rel_err(prob, expected) <= 1e-9
                assert rel_err(prob_eps_tensor(scale * rho, sigma, eps, n),
                               expected) <= 1e-9

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


def block_search(rho, sigma, eps, n):
    """(prob, threshold, fractional weights per block) of the block search;
    a weight strictly between 0 and 1 puts the threshold at a jump of g."""
    r, s, *_ = hypotest._sigma_basis(rho, sigma)
    prob, t, _, tests = hypotest._np_search(
        hypotest._schur_weyl_blocks(r, s, n), eps)
    return prob, t, [int(((c > 0) & (c < 1)).sum()) for _, c in tests]


def record_eig(monkeypatch) -> list[np.ndarray]:
    """Records each operator eigensolved from here on: sigma, which
    entropy.pair_spectra solves, and each block the search solves."""
    solved = []
    for module in (entropy, hypotest):
        monkeypatch.setattr(module, "eig",
                            lambda h: solved.append(h) or eig(h))
    return solved


class TestSchurWeylBlocks:
    """The qubit block route against independent oracles.  prob_eps_tensor
    takes a diagonal pair to its type classes, so each commuting check is
    made through block_search as well."""

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
                expected = type_class_oracle(p, q, n, eps)
                assert rel_err(prob_eps_tensor(rho, sigma, eps, n),
                               expected) <= 1e-9
                assert rel_err(block_search(rho, sigma, eps, n)[0],
                               expected) <= 1e-9

    def test_commuting_matches_type_classes_n120(self):
        rho, sigma = diag_pair(0.9, 0.5)
        expected = type_class_oracle(0.9, 0.5, 120, 0.5)
        assert rel_err(prob_eps_tensor(rho, sigma, 0.5, 120), expected) <= 1e-9
        assert rel_err(block_search(rho, sigma, 0.5, 120)[0],
                       expected) <= 1e-9

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
        # and prob, 1e-11^29 = 1e-319, is subnormal: the type classes refuse
        # it as well
        rho, sigma = diag_pair(0.5, 1e-11)
        with pytest.raises(RuntimeError, match="float range.*eps"):
            prob_eps_tensor(rho, sigma, 0.5 ** 29, 29)
        with pytest.raises(RuntimeError, match="float range.*eps"):
            block_search(rho, sigma, 0.5 ** 29, 29)

    def test_infeasible_search_raises(self):
        # rho's blocks hold mass 1 - 2.5e-10, so neither end of the closed
        # bracket meets eps within the power tolerance 1e-10; the search
        # used to return t = 0's test, prob 0.9999999999999984 against 3.3e-6
        rho, sigma = random_density(42, 3), random_density(42, 3, index=1)
        r, s, *_ = hypotest._sigma_basis(rho, sigma)
        blocks = hypotest._schur_weyl_blocks(r * (1 - 5e-11), s, 5)
        with pytest.raises(RuntimeError,
                           match=r"no feasible test at either end.*t in \["):
            hypotest._np_search(blocks, 0.1)

    @pytest.mark.parametrize("p, q", [(0.6, 0.45), (0.9, 0.5), (0.3, 0.7),
                                      (0.02, 0.01)])
    def test_eps_at_either_extreme(self, p, q):
        # the rho mass a test misses of eps is eps less the mass taken at
        # eps <= 1/2, and the mass left less 1 - eps above: the complement
        # alone reads up to 9.1e-4 relative off at eps 1e-12 (the type
        # classes 1.8e-3), and eps less the mass taken alone 5.4e-9 at
        # 1 - 1e-12 (the type classes 2.4e-7)
        rho, sigma = diag_pair(p, q)
        for n in (1, 5, 12):
            for eps in (1e-12, 1e-9, 1 - 1e-9, 1 - 1e-12):
                expected = type_class_oracle(p, q, n, eps)
                assert rel_err(prob_eps_tensor(rho, sigma, eps, n),
                               expected) <= 1e-10
                assert rel_err(block_search(rho, sigma, eps, n)[0],
                               expected) <= 1e-10

    def test_leaking_pair_starts_at_one(self):
        # rho leaks into sigma's kernel, so n S(rho||sigma) is inf and the
        # Stein threshold exp(n inf) no start: the search starts at t = 1
        u = random_unitary(5, 2)
        rho = u @ np.diag([0.7, 0.3]) @ u.conj().T
        for n, prob in ((2, 0.4927), (3, 0.0680)):
            dense = np_optimal_test(tensor_power(rho, n),
                                    tensor_power(KET0, n), 0.9).prob
            assert abs(prob_eps_tensor(rho, KET0, 0.9, n) - dense) <= 1e-13
            assert abs(dense - prob) < 5e-5

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
    # rho's masses sum to 1 only up to 5.5e-17 here, 4.8e-9 of the 1.15e-8
    # mass that the fractional weight must carry
    @example(p_exp=1e-08, q_exp=7.0, n=1, eps=0.5)
    def test_extreme_commuting_spectra(self, p_exp, q_exp, n, eps):
        # smallest eigenvalues from 1 down to 1e-12; the search terminates by
        # its step cap whatever the threshold, so no wall-clock bound is set
        p, q = 10.0 ** -p_exp / 2, 10.0 ** -q_exp / 2
        # thresholds are products of n per-copy likelihood ratios; keep them
        # inside the float range (test_threshold_beyond_float_range)
        assume(n * math.log(max(p / q, (1 - p) / (1 - q))) < 700)
        rho, sigma = diag_pair(p, q)
        prob = prob_eps_tensor(rho, sigma, eps, n)
        block = block_search(rho, sigma, eps, n)[0]
        # sigma's support is decided on one copy: an eigenvalue below the
        # relative cutoff is 0, which makes prob 0 when rho's mass there
        # meets eps
        if q <= LOG_SUPPORT_RTOL * (1 - q):
            q = 0.0
        expected = type_class_oracle(p, q, n, eps)
        assert abs(prob - expected) <= 1e-9 * expected
        assert abs(block - expected) <= 1e-9 * expected

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

    def test_levels_built_once_per_series(self, monkeypatch):
        # each level's images are kron products of the level below; a
        # series builds each level once, where rebuilding levels 1..N for
        # every N took sum_N sum_(size <= N) of them
        rho, sigma = random_density(42, 3), random_density(42, 3, index=1)
        products = [0]
        kron = hypotest.kron
        monkeypatch.setattr(hypotest, "kron", lambda a, b: products.__setitem__(
            0, products[0] + 1) or kron(a, b))
        series = stein_rate_series(rho, sigma, 0.5, 6)
        levels = hypotest._TOWERS[3].levels
        assert products[0] == sum(len(levels[size]) for size in range(1, 7))
        assert [prob for _, prob, _ in series.rows] == [
            prob_eps_tensor(rho, sigma, 0.5, n) for n in range(1, 7)]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_dimension_and_trace(self, d):
        rho = random_density(20 + d, d)
        sigma = random_density(20 + d, d, index=1)
        r, s, *_ = hypotest._sigma_basis(rho, sigma)
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
        r, s, *_ = hypotest._sigma_basis(rho, sigma)
        solved = record_eig(monkeypatch)
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
        diagonal = np.diag(p).astype(complex), np.diag(q).astype(complex)
        u = random_unitary(4, 3)     # a shared eigenbasis off the standard one
        rotated = u @ np.diag(p) @ u.conj().T, u @ np.diag(q) @ u.conj().T
        for n in (1, 4, 7):
            for eps in (0.2, 0.5, 0.9):
                expected = type_class_oracle(p, q, n, eps)
                # the rotated pair is not exactly diagonal in sigma's
                # eigenbasis, so prob_eps_tensor searches its blocks
                for prob in (prob_eps_tensor(*diagonal, eps, n),
                             block_search(*diagonal, eps, n)[0],
                             prob_eps_tensor(*rotated, eps, n)):
                    assert rel_err(prob, expected) <= 1e-9

    def test_commuting_qutrits_beyond_dim_cap(self):
        # 3^10 = 59049 > DIM_CAP: no dense tensor power is built
        p, q = (0.5, 0.3, 0.2), (0.2, 0.3, 0.5)
        rho, sigma = np.diag(p).astype(complex), np.diag(q).astype(complex)
        expected = type_class_oracle(p, q, 10, 0.5)
        assert rel_err(prob_eps_tensor(rho, sigma, 0.5, 10), expected) <= 1e-9
        assert rel_err(block_search(rho, sigma, 0.5, 10)[0], expected) <= 1e-9

    def test_sigma_support_decided_on_one_copy(self):
        # (1e-5)^3 is far below the relative cutoff on 3 copies, not on one;
        # the best test takes 0.02 * 27 of |000> in sigma's eigenbasis
        u = random_unitary(0, 3)
        sigma = u @ np.diag([1e-5, 0.5 - 5e-6, 0.5 - 5e-6]) @ u.conj().T
        prob = prob_eps_tensor(np.eye(3) / 3, sigma, 0.02, 3)
        assert rel_err(prob, 0.02 * 27 * 1e-15) <= 1e-9

    def test_sigma_block_below_float_range_raises(self):
        # (1e-11)^30 underflows to 0 in sigma's block, where 68.7 % of
        # rho's mass sits: read as sigma's kernel, it would give prob 0
        c, s = math.cos(0.05), math.sin(0.05)
        rot = np.array([[c, -s], [s, c]])
        rho = (rot @ np.diag([0.01, 0.99]) @ rot.T).astype(complex)
        sigma = np.diag([1 - 1e-11, 1e-11]).astype(complex)
        with pytest.raises(RuntimeError, match="float range at n 30"):
            prob_eps_tensor(rho, sigma, 0.5, 30)
        with pytest.raises(RuntimeError, match="float range at n 30"):
            stein_rate_series(rho, sigma, 0.5, 30)


class TestSearchSteps:
    """The steps that close the threshold bracket, each kind against an
    oracle at the tolerances of the tests above."""

    @pytest.mark.parametrize("pair, n_max, bound", [
        ((D91, UNIF), 9, 1),
        ((random_density(42, 2), random_density(42, 2, index=1)), 9, 305),
        ((random_density(42, 3), random_density(42, 3, index=1)), 5, 135),
    ], ids=["stein-diag", "stein-random", "np-qutrit-0"])
    def test_eig_calls_per_series(self, monkeypatch, pair, n_max, bound):
        # the benchmark's series, at 10 % above the eigensolves of a search
        # started at the Stein threshold and closed by Newton steps (1, 278
        # and 123); bisecting t down to BISECT_WIDTH took 1352, 1358 and 725,
        # and the search started at t = 1 with Illinois steps 1, 433 and 273
        solved = record_eig(monkeypatch)
        stein_rate_series(*pair, 0.5, n_max)
        assert len(solved) <= bound

    @pytest.mark.parametrize("t", [5.0, 10.0, 20.0, 40.0])
    def test_slope_matches_central_difference(self, t):
        # g'(t) from one split against a Richardson-extrapolated central
        # difference of g, with no eigenvalue leaving the positive set
        rho, sigma = random_density(42, 3), random_density(42, 3, index=1)
        r, s, *_ = hypotest._sigma_basis(rho, sigma)
        blocks = hypotest._schur_weyl_blocks(r, s, 3)
        splits = {x: hypotest._split_at(blocks, x, 0.0)
                  for x in t * (1 + np.array([-1e-3, -5e-4, 0, 5e-4, 1e-3]))}
        assert len({tuple(np.concatenate([w > band
                                          for *_, w, _, _, band in split]))
                    for split, _ in splits.values()}) == 1
        g = [f for _, f in splits.values()]
        wide = (g[4] - g[0]) / (2e-3 * t)
        narrow = (g[3] - g[1]) / (1e-3 * t)
        slope = hypotest._slope(blocks, splits[t][0], t)
        assert slope < 0
        assert rel_err((4 * narrow - wide) / 3, slope) <= 1e-10

    def test_steps_within_stated_bound(self, monkeypatch):
        # near this threshold (about 6e14) eigensolve rounding makes g noisy,
        # steps stall and bisections take over; a search whose threshold is
        # above 1 takes at most 11 squarings, 10 bisections of log t and
        # twice the 40 bisections that close the bracket
        monkeypatch.setattr(hypotest, "MAX_SEARCH_STEPS", 11 + 10 + 2 * 40)
        rho, sigma = random_density(0, 2), random_density(0, 2, index=1)
        assert prob_eps_tensor(rho, sigma, 0.01, 60) > 0

    @pytest.mark.parametrize("eps", [0.2, 0.5, 0.9])
    def test_jump_shared_across_blocks(self, eps):
        # weight a of 7 qubits lies in every block (7 - k, k) with
        # k <= min(a, 7 - a), so its likelihood ratio leaves several at once
        p, q = 0.6, 0.45
        prob, _, fractional = block_search(*diag_pair(p, q), eps, 7)
        assert sum(fractional) > 0
        assert rel_err(prob, type_class_oracle(p, q, 7, eps)) <= 1e-9

    @pytest.mark.parametrize("eps", [0.2, 0.5, 0.9])
    def test_jump_commuting_qutrits(self, eps):
        p, q = (0.5, 0.3, 0.2), (0.2, 0.3, 0.5)
        prob, _, fractional = block_search(np.diag(p).astype(complex),
                                           np.diag(q).astype(complex), eps, 5)
        assert sum(fractional) > 0
        assert rel_err(prob, type_class_oracle(p, q, 5, eps)) <= 1e-9

    @pytest.mark.parametrize("eps", [0.2, 0.5, 0.9])
    def test_continuous_root_non_commuting_qutrits(self, eps):
        rho, sigma = random_density(42, 3), random_density(42, 3, index=1)
        prob, _, fractional = block_search(rho, sigma, eps, 5)
        assert sum(fractional) == 0
        dense = np_optimal_test(tensor_power(rho, 5), tensor_power(sigma, 5),
                                eps).prob
        assert rel_err(prob, dense) <= 1e-10

    @pytest.mark.parametrize("eps", [0.2, 0.5, 0.9])
    def test_threshold_below_one(self, monkeypatch, eps):
        # the bracket starts at lo = 0, whose split is the final t = 0 guard
        solved = record_eig(monkeypatch)
        prob, t, _ = block_search(*diag_pair(0.02, 0.01), eps, 7)
        assert t < 1
        assert rel_err(prob, type_class_oracle(0.02, 0.01, 7, eps)) <= 1e-9
        # sorted eigenvalues of these diagonal blocks cross inside the
        # bracket; bisection took 169 eigensolves
        assert len(solved) <= 169 // 2
        # and a non-commuting qutrit pair close to sigma
        rho = np.diag([0.03, 0.48, 0.49]).astype(complex)
        rho[0, 2] = rho[2, 0] = 0.01
        sigma = np.diag([0.01, 0.49, 0.5]).astype(complex)
        for n in (2, 3, 4):
            prob, t, _ = block_search(rho, sigma, eps, n)
            dense = np_optimal_test(tensor_power(rho, n),
                                    tensor_power(sigma, n), eps)
            assert t < 1 and dense.threshold_t < 1
            assert rel_err(prob, dense.prob) <= 1e-10


def mp_qubit_type_classes(p, q, n, eps):
    """prob for n copies of diag(p, 1-p) against diag(q, 1-q) with p > q, in
    50-digit arithmetic on the same floats: the likelihood ratio grows with
    the count k of the first outcome, so classes are taken from k = n down."""
    with mpmath.workdps(50):
        p0, p1, q0, q1 = map(mpmath.mpf, (p, 1 - p, q, 1 - q))
        power = cost = mpmath.mpf(0)
        for k in range(n, -1, -1):
            b = mpmath.binomial(n, k)
            pk, qk = b * p0 ** k * p1 ** (n - k), b * q0 ** k * q1 ** (n - k)
            if power + pk >= eps:
                return float(cost + (eps - power) / pk * qk)
            power, cost = power + pk, cost + qk


class TestTypeClasses:
    """The commuting path: a pair that is diagonal in sigma's eigenbasis is
    solved on its type classes, with one sort and no eigensolve."""

    @pytest.mark.parametrize("eps", [1.0, 1 - 1e-11, 1 - 1e-9])
    @pytest.mark.parametrize("p, q, n", [
        ((0.9, 0.1), (0.1, 0.9), 20), ((0.9, 0.1), (0.5, 0.5), 20),
        ((0.005, 0.995), (0.5, 0.5), 5),
        ((0.5, 0.3, 0.2), (0.2, 0.3, 0.5), 12),
    ])
    def test_eps_near_one(self, p, q, n, eps):
        # the block search read 0.608 for the first pair at eps = 1, where
        # every class is taken and the answer is 1: it accepts a test whose
        # missing rho mass is below its 1e-10 power tolerance
        rho, sigma = np.diag(p).astype(complex), np.diag(q).astype(complex)
        assert rel_err(prob_eps_tensor(rho, sigma, eps, n),
                       type_class_oracle(p, q, n, eps)) <= 1e-9

    @pytest.mark.parametrize("q, n", [(10 ** -11.5 / 2, 9), (1e-6, 41)])
    def test_eps_at_a_likelihood_ratio_step(self, q, n):
        # the upper half of an odd number of uniform copies holds rho mass
        # 0.5 exactly; a rounding-sized sliver of the next class, whose q/p
        # is 1e11 or 1e6 times larger, read 3.7e-3 and 4.5e-8 relative off
        rho, sigma = diag_pair(0.5, q)
        assert rel_err(prob_eps_tensor(rho, sigma, 0.5, n),
                       type_class_oracle(0.5, q, n, 0.5)) <= 1e-9

    @pytest.mark.parametrize("delta", [1e-25, 1e-14])
    def test_eps_one_reads_the_same_on_every_path(self, delta):
        # rho's second eigenvalue is below the support cutoff, so the support
        # test is |0><0| on one copy; the type classes took every class with
        # p > 0 and read 1.0, the rotated pair 0.5^n
        rho = np.diag([1 - delta, delta]).astype(complex)
        u = random_unitary(4, 2)
        one_copy = np_optimal_test(rho, UNIF, 1.0).prob
        for n in (1, 3, 16):
            for prob in (prob_eps_tensor(rho, UNIF, 1.0, n),
                         prob_eps_tensor(u @ rho @ u.conj().T,
                                         u @ UNIF @ u.conj().T, 1.0, n)):
                assert rel_err(prob, one_copy ** n) <= 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_table_matches_combinations(self, d):
        # stars and bars: the d - 1 bars among n + d - 1 slots give a class,
        # and itertools.combinations lists them in the table's order
        for n in range(13):
            bars = np.array([(-1, *c, n + d - 1) for c in
                             itertools.combinations(range(n + d - 1), d - 1)])
            assert np.array_equal(hypotest._compositions(n, d),
                                  np.diff(bars, axis=1) - 1)

    def test_qutrit_series_without_blocks(self, monkeypatch):
        # the dense diagonal blocks took 13 s at N = 16 and 77 s at N = 20
        p, q = (0.5, 0.3, 0.2), (0.2, 0.3, 0.5)
        rho, sigma = np.diag(p).astype(complex), np.diag(q).astype(complex)
        towers = {d: len(t.levels) for d, t in hypotest._TOWERS.items()}
        solved = record_eig(monkeypatch)
        series = stein_rate_series(rho, sigma, 0.5, 20)
        assert len(solved) == 1 and np.array_equal(solved[0], sigma)
        assert {d: len(t.levels)
                for d, t in hypotest._TOWERS.items()} == towers
        for n, prob, _ in series.rows:
            assert rel_err(prob, type_class_oracle(p, q, n, 0.5)) <= 1e-9

    @pytest.mark.parametrize("sigma, q, n", [(UNIF, 0.5, 1000),
                                             (D19, 0.1, 400)])
    def test_qubit_against_mpmath(self, sigma, q, n):
        # each log mass is a difference of lgamma values up to ln 1000! =
        # 5912, whose ulp is 9.1e-13; the N = 1000 point reads 9.2e-12
        assert rel_err(prob_eps_tensor(D91, sigma, 0.5, n),
                       mp_qubit_type_classes(0.9, q, n, 0.5)) <= 1e-10

    def test_eps_met_in_sigma_kernel(self):
        # every class taken has sigma mass 0, so the log prob is -inf
        for n in (1, 4):
            assert prob_eps_tensor(UNIF, KET0, 0.3, n) == 0.0

    def test_prob_below_float_range_raises(self):
        # prob falls like exp(-1.76 N): 1.1e-307 at N = 400, subnormal at 402
        assert prob_eps_tensor(D91, D19, 0.5, 400) >= sys.float_info.min
        with pytest.raises(RuntimeError, match="float range.*eps 0.5"):
            prob_eps_tensor(D91, D19, 0.5, 402)
        with pytest.raises(RuntimeError, match="float range.*eps 0.5"):
            stein_rate_series(D91, D19, 0.5, 402)


class TestEpsOne:
    """At eps = 1 the optimal test projects rho onto its support; on n
    copies that support is decided on one copy, as sigma's kernel is."""

    @pytest.mark.parametrize("d, ns", [(2, (1, 3, 5, 10)), (3, (1, 3, 5))])
    def test_pure_state(self, d, ns):
        # the block search read 3.0e-9 off at d = 2, n = 1 and 5.5e-8 at
        # d = 3, n = 5, where it stopped in the bracket
        psi = random_unitary(3, d)[:, 0]
        rho, sigma = np.outer(psi, psi.conj()), random_density(5, d)
        overlap = (psi.conj() @ sigma @ psi).real
        for n in ns:
            assert rel_err(prob_eps_tensor(rho, sigma, 1.0, n),
                           overlap ** n) <= 1e-12
            if d ** n <= 243:
                dense = np_optimal_test(tensor_power(rho, n),
                                        tensor_power(sigma, n), 1.0)
                assert rel_err(dense.prob, overlap ** n) <= 1e-12
                assert dense.power >= 1 - 1e-12

    def test_graded_pair_decided_on_one_copy(self):
        # diag(0.9, 0.1) against diag(0.1, 0.9) in a rotated basis keeps
        # rounding off the diagonal, so it skips the type classes;
        # rho^(x)20 spans 20 decades and is full rank: prob is 1
        u = random_unitary(4, 2)
        rho, sigma = (u @ a @ u.conj().T for a in (D91, D19))
        assert hypotest._sigma_basis(rho, sigma)[0][0, 1] != 0
        assert rel_err(prob_eps_tensor(rho, sigma, 1.0, 20),
                       type_class_oracle((0.9, 0.1), (0.1, 0.9), 20,
                                         1.0)) <= 1e-12

    def test_type_class_oracle_takes_every_class(self):
        # the float masses of diag(0.9, 0.1) sum above 1, and a float oracle
        # read 0.316 here, stopping before the last classes
        assert type_class_oracle((0.9, 0.1), (0.1, 0.9), 20, 1.0) == 1

    def test_search_refuses_blocks(self):
        # N copies take the one-copy support test to the N-th power; a
        # support decided over blocks would differ from it
        r, s, *_ = hypotest._sigma_basis(D91, D19)
        with pytest.raises(ValueError, match="one block, got 2"):
            hypotest._np_search(hypotest._schur_weyl_blocks(r, s, 2), 1.0)
