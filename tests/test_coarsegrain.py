import itertools
import time
import tracemalloc

import numpy as np
import pytest

from macrolab.coarsegrain import (_CHUNK_ENTRIES, KGProjector,
                                  canonical_coarse_grain,
                                  epsilon_choices, gamma_n,
                                  kg_apply_observable, kg_apply_state,
                                  kg_build, kg_build_stack,
                                  positivity_diagnostic, product_coarse_grain)
from macrolab.entropy import relative_entropy
from macrolab.harness import ExperimentConfig, run_experiment
from macrolab.maxent import InfeasibleTargetError, ObservableSet, fit_maxent
from macrolab.operators import (DIM_CAP, random_density, random_observables,
                                random_test_operator, random_test_operators,
                                tensor_power)
from oracles import (kg_gamma_n, kg_project, lifted_deriv, lifted_observable,
                     pos_neg_parts, trace_distance)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def seeded_set(seed, dim, m, index=0):
    return ObservableSet(dim, tuple(random_observables(seed, dim, m, index=index)))


class TestCanonicalCoarseGrain:
    def test_fixed_point(self):
        obs = seeded_set(1, 3, 2)
        mu = fit_maxent(obs, [0.1, -0.2]).mu
        out = canonical_coarse_grain(mu, obs)
        assert np.max(np.abs(out.mu - mu)) < 1e-8

    def test_diagonal_constraint_kills_off_diagonals(self):
        obs = ObservableSet(2, (SZ,))
        rho = random_density(2, 2)
        out = canonical_coarse_grain(rho, obs)
        np.testing.assert_allclose(out.mu, np.diag(np.diag(rho)), atol=1e-8)

    def test_full_information_is_identity(self):
        obs = ObservableSet(2, (SX, SY, SZ))
        rho = random_density(3, 2)
        out = canonical_coarse_grain(rho, obs)
        assert np.max(np.abs(out.mu - rho)) < 1e-7


class TestProductCoarseGrain:
    def test_product_unchanged(self):
        rho = np.kron(random_density(4, 2), random_density(4, 2, index=1))
        np.testing.assert_allclose(product_coarse_grain(rho, (2, 2)), rho,
                                   atol=1e-12)

    def test_bell_state(self):
        psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        np.testing.assert_allclose(product_coarse_grain(rho, (2, 2)),
                                   np.eye(4) / 4, atol=1e-12)

    def test_shrinks_relative_entropy(self):
        rho = random_density(5, 4)
        sigma = random_density(5, 4, index=1)
        assert relative_entropy(product_coarse_grain(rho, (2, 2)),
                                product_coarse_grain(sigma, (2, 2))) \
            <= relative_entropy(rho, sigma) + 1e-9


class TestKGBuild:
    def test_qubit_closed_form(self):
        kg = kg_build(ObservableSet(2, (SZ,)), [0.0])
        np.testing.assert_allclose(kg.derivs[0], SZ / 2, atol=1e-8)

    def test_invariants(self):
        obs = seeded_set(6, 3, 2)
        kg = kg_build(obs, [0.05, -0.1])
        for a, da in enumerate(kg.derivs):
            assert abs(np.trace(da).real) < 1e-10
            for c, gc in enumerate(obs.members):
                assert abs(np.trace(gc @ da).real - (c == a)) < 1e-8

    def test_stack_matches_solo_builds(self):
        for seed in range(5):
            for dim in (2, 3):
                for m in (1, 2):
                    obs = seeded_set(seed, dim, m, index=m)
                    targets = [obs.expectations(random_density(seed, dim,
                                                               index=i))
                               for i in range(3)]
                    for kg, f in zip(kg_build_stack(obs, targets), targets):
                        solo = kg_build(obs, f)
                        assert np.array_equal(kg.f, solo.f)
                        assert np.array_equal(kg.mu, solo.mu)
                        assert np.array_equal(kg.derivs, solo.derivs)

    @pytest.mark.parametrize("bad", [0, 1])
    def test_stack_raises_the_solo_error(self, bad):
        obs = seeded_set(29, 3, 2, index=2)
        feasible = obs.expectations(random_density(29, 3))
        # beyond the top eigenvalue of G_0: no state reaches it
        infeasible = np.array([np.linalg.eigvalsh(obs.members[0])[-1] + 1, 0])
        targets = [feasible, feasible]
        targets[bad] = infeasible
        with pytest.raises(InfeasibleTargetError) as solo:
            kg_build(obs, targets[bad])
        with pytest.raises(InfeasibleTargetError) as stacked:
            kg_build_stack(obs, targets)
        assert str(stacked.value) == str(solo.value)

    def test_empty_set_degenerate(self):
        kg = kg_build(ObservableSet(2, ()), [])
        for n in (1, 2):
            gamma = random_test_operator(7, 2 ** n)
            out = kg_apply_observable(kg.lift(n), gamma)
            expected = (np.trace(tensor_power(kg.mu, n) @ gamma).real
                        * np.eye(2 ** n))
            np.testing.assert_allclose(out, expected, atol=1e-12)


class TestKGLift:
    def test_matches_per_slot_sums(self):
        for dim in (2, 3):
            for m in (1, 2):
                obs = seeded_set(21, dim, m, index=m)
                kg = kg_build(obs, obs.expectations(random_density(21, dim)))
                for n in (1, 2, 3, 4):
                    lifted = kg.lift(n)
                    mu_n, gbar, dbar = lifted.mu_n, lifted.gbar, lifted.dbar
                    assert lifted.n == n
                    assert gbar.shape == dbar.shape == (m, dim ** n, dim ** n)
                    np.testing.assert_allclose(mu_n, tensor_power(kg.mu, n),
                                               rtol=0, atol=1e-13)
                    for a in range(m):
                        np.testing.assert_allclose(
                            gbar[a], lifted_observable(kg, a, n),
                            rtol=0, atol=1e-13)
                        np.testing.assert_allclose(
                            dbar[a], lifted_deriv(kg, a, n),
                            rtol=0, atol=1e-13)

    def test_cap_checked_before_any_allocation(self):
        kg = kg_build(seeded_set(22, 2, 1), [0.1])
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"exceeds cap {DIM_CAP}"):
            kg.lift(13)
        assert time.perf_counter() - start < 1.0

    def test_built_projector_is_its_own_one_copy_lift(self):
        kg = kg_build(seeded_set(22, 3, 2), [0.1, -0.05])
        assert kg.n == 1 and kg.mu_n is kg.mu and kg.dbar is kg.derivs
        one = kg.lift(1)
        assert one.n == 1
        assert np.array_equal(one.mu_n, kg.mu)
        assert np.array_equal(one.dbar, kg.derivs)
        # a lift is always taken from the one-copy data
        assert np.array_equal(kg.lift(2).lift(3).mu_n, kg.lift(3).mu_n)

    def test_kg_battery_lifts_each_projector_once_per_n(self, monkeypatch):
        # 2 dims x 2 m x (kg_rho, kg_sigma) x N in {1, 2, 3}
        lift, lifted = KGProjector.lift, []

        def counting(kg, n):
            lifted.append((kg, n))    # held, so that no id is reused
            return lift(kg, n)
        monkeypatch.setattr(KGProjector, "lift", counting)
        run_experiment(ExperimentConfig(experiment="kg-checks", trials=100,
                                        seed=42, n_max=3))
        assert len(lifted) == 24
        assert len({(id(kg), n) for kg, n in lifted}) == 24

    def test_gamma_n_and_diagnostic_never_build_gbar(self):
        obs = seeded_set(22, 2, 2, index=2)
        kg = kg_build(obs, obs.expectations(random_density(22, 2))).lift(3)
        gamma_n(kg, random_density(22, 2, index=1))
        positivity_diagnostic([kg], trials=10, seed=22)
        assert "gbar" not in kg.__dict__
        kg_apply_observable(kg, random_test_operator(22, 8))
        assert "gbar" in kg.__dict__

    @pytest.mark.parametrize("dim, n, op_dim", [(2, 2, 8), (2, 3, 4),
                                                (3, 1, 2), (2, 1, 3)])
    def test_operand_of_another_lift_rejected(self, dim, n, op_dim):
        kg = kg_build(seeded_set(22, dim, 1), [0.1]).lift(n)
        op = random_test_operator(22, op_dim)
        with pytest.raises(ValueError, match=rf"^tau dim {op_dim} != "
                           rf"{dim}\^{n}$"):
            kg_apply_state(kg, op)
        with pytest.raises(ValueError, match=rf"^observable dim {op_dim} "
                           rf"!= {dim}\^{n}$"):
            kg_apply_observable(kg, op)
        if op_dim != dim:
            with pytest.raises(ValueError,
                               match=rf"^rho dim {op_dim} != {dim}\^1$"):
                gamma_n(kg, op)

    def test_diagnostic_rejects_projectors_on_different_n(self):
        kg = kg_build(seeded_set(22, 2, 1), [0.1])
        with pytest.raises(ValueError, match=r"different dims \[4, 8\]"):
            positivity_diagnostic([kg.lift(2), kg.lift(3)], trials=5, seed=0)


@pytest.mark.parametrize("call", [
    lambda kg, bad: kg_apply_state(kg.lift(1), bad),
    lambda kg, bad: kg_apply_observable(kg.lift(1), bad),
    lambda kg, bad: gamma_n(kg.lift(2), bad),
], ids=["apply-state", "apply-observable", "gamma-n"])
def test_non_hermitian_input_rejected(call):
    kg = kg_build(seeded_set(23, 2, 1), [0.1])
    bad = np.array([[0.5, 1], [0, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        call(kg, bad)


class TestKGApplyState:
    def test_matched_tensor_power_maps_to_mu(self):
        obs = seeded_set(8, 2, 1)
        rho = random_density(8, 2)
        kg = kg_build(obs, obs.expectations(rho))
        for n in (1, 2, 3):
            out = kg_apply_state(kg.lift(n), tensor_power(rho, n))
            np.testing.assert_allclose(out, tensor_power(kg.mu, n), atol=1e-8)

    def test_single_copy_matched_expectations(self):
        obs = seeded_set(9, 2, 1)
        tau = random_density(9, 2)
        kg = kg_build(obs, obs.expectations(tau))
        np.testing.assert_allclose(kg_apply_state(kg.lift(1), tau), kg.mu,
                                   atol=1e-8)

    def test_expectation_reproduction(self):
        obs = seeded_set(10, 2, 1)
        kg = kg_build(obs, [0.15])
        tau = random_density(10, 4)  # a correlated two-copy state
        out = kg_apply_state(kg.lift(2), tau)
        assert abs(np.trace(out).real - 1) < 1e-10
        gbar = lifted_observable(kg, 0, 2)
        assert abs(np.trace(gbar @ out).real
                   - np.trace(gbar @ tau).real) < 1e-9


class TestKGApplyObservable:
    def test_unitality(self):
        kg = kg_build(seeded_set(11, 2, 1), [0.1])
        for n in (1, 2):
            np.testing.assert_allclose(
                kg_apply_observable(kg.lift(n),
                                    np.eye(2 ** n, dtype=complex)),
                np.eye(2 ** n), atol=1e-10)

    def test_defining_property_via_pairing(self):
        for seed in range(5):
            for dim, m in ((2, 1), (2, 2), (3, 1), (3, 2)):
                obs = seeded_set(seed, dim, m)
                rho = random_density(seed, dim)
                kg = kg_build(obs, obs.expectations(rho))
                for n in (1, 2, 3):
                    if dim ** n > 64:
                        continue
                    gamma = random_test_operator(seed, dim ** n, index=n)
                    lhs = np.trace(tensor_power(rho, n)
                                   @ kg_apply_observable(kg.lift(n), gamma))
                    rhs = np.trace(tensor_power(kg.mu, n) @ gamma)
                    assert abs(lhs - rhs) < 1e-9

    def test_adjoint_pairing_identity(self):
        kg = kg_build(seeded_set(12, 2, 1), [0.2])
        for n in (1, 2):
            tau = random_density(12, 2 ** n, index=n)
            gamma = random_test_operator(12, 2 ** n, index=n)
            lhs = np.trace(tau @ kg_apply_observable(kg.lift(n), gamma))
            rhs = np.trace(kg_apply_state(kg.lift(n), tau) @ gamma)
            assert abs(lhs - rhs) < 1e-9

    def test_idempotency_distinct_states(self):
        for seed in range(5):
            for dim in (2, 3):
                obs = seeded_set(seed, dim, 1)
                rho = random_density(seed, dim)
                sigma = random_density(seed, dim, index=1)
                kg_rho = kg_build(obs, obs.expectations(rho))
                kg_sigma = kg_build(obs, obs.expectations(sigma))
                for n in (1, 2, 3):
                    gamma = random_test_operator(seed, dim ** n, index=n)
                    ps = kg_apply_observable(kg_sigma.lift(n), gamma)
                    pps = kg_apply_observable(kg_rho.lift(n), ps)
                    assert np.linalg.norm(pps - ps) < 1e-9

    def test_stack_matches_solo_calls(self):
        for dim in (2, 3):
            for m in (1, 2):
                obs = seeded_set(24, dim, m, index=m)
                kg = kg_build(obs, obs.expectations(random_density(24, dim)))
                for n in (1, 2, 3):
                    lifted = kg.lift(n)
                    gammas = random_test_operators(24, dim ** n, range(5))
                    stacked = kg_apply_observable(lifted, gammas)
                    assert stacked.shape == gammas.shape
                    for gamma, out in zip(gammas, stacked):
                        np.testing.assert_allclose(
                            out, kg_apply_observable(lifted, gamma),
                            rtol=0, atol=1e-14)

    def test_linearity(self):
        kg = kg_build(seeded_set(13, 3, 2), [0.1, 0.05])
        g1 = random_test_operator(13, 3)
        g2 = random_test_operator(13, 3, index=1)
        combo = kg_apply_observable(kg, 0.7 * g1 + 1.3 * g2)
        parts = 0.7 * kg_apply_observable(kg, g1) \
            + 1.3 * kg_apply_observable(kg, g2)
        np.testing.assert_allclose(combo, parts, atol=1e-10)

    def test_range_depends_only_on_lifted_observables(self):
        # (rho^N | P_sigma Gamma) = (mu_f(rho)^N | P_sigma Gamma)
        obs = seeded_set(14, 2, 1)
        rho = random_density(14, 2)
        sigma = random_density(14, 2, index=1)
        kg_sigma = kg_build(obs, obs.expectations(sigma))
        mu_rho = kg_build(obs, obs.expectations(rho)).mu
        for n in (1, 2):
            gamma = random_test_operator(14, 2 ** n, index=n)
            pg = kg_apply_observable(kg_sigma.lift(n), gamma)
            lhs = np.trace(tensor_power(rho, n) @ pg)
            rhs = np.trace(tensor_power(mu_rho, n) @ pg)
            assert abs(lhs - rhs) < 1e-9


class TestPositivityDiagnostic:
    def test_identity_and_zero_in_range(self):
        kg = kg_build(seeded_set(15, 2, 1), [0.1])
        for gamma in (np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)):
            w = np.linalg.eigvalsh(kg_apply_observable(kg.lift(1), gamma))
            assert w[0] >= -1e-9 and w[-1] <= 1 + 1e-9

    def test_report_shape(self):
        kg = kg_build(seeded_set(16, 2, 1), [0.1])
        report = positivity_diagnostic([kg], trials=500, seed=16)[0]
        assert report.trials == 500
        assert 0.0 <= report.violation_fraction <= 1.0
        assert report.min_eig <= report.max_eig

    def test_matches_per_trial_oracle(self):
        # seed 25 puts P Gamma outside [0, 1] in some trials of the qubit
        # cases; at d = 2, N = 6 the 30 trials span several chunks, the last
        # one partial; the last case is one call on two projectors
        chunk = _CHUNK_ENTRIES // (2 ** 6) ** 2
        assert 30 > chunk and 30 % chunk
        for dim, ms, n in ((2, (1,), 3), (2, (2,), 2), (3, (2,), 2),
                           (2, (1,), 6), (3, (1, 2), 2)):
            kgs = [kg_build(obs, obs.expectations(
                random_density(25, dim, index=5)))
                for obs in (seeded_set(25, dim, m, index=m) for m in ms)]
            reports = positivity_diagnostic([kg.lift(n) for kg in kgs],
                                            trials=30, seed=25)
            assert len(reports) == len(kgs)
            for kg, report in zip(kgs, reports):
                eigs = [np.linalg.eigvalsh(kg_project(
                    kg, random_test_operator(25, dim ** n, index=i), n))
                    for i in range(30)]
                violations = sum(w[0] < -1e-9 or w[-1] > 1 + 1e-9
                                 for w in eigs)
                assert report.n_copies == n and report.trials == 30
                assert abs(report.min_eig - min(w[0] for w in eigs)) < 1e-12
                assert abs(report.max_eig - max(w[-1] for w in eigs)) < 1e-12
                assert report.violation_fraction == violations / 30

    def test_dense_spectrum_is_one_copy_means(self):
        # P Gamma = s 1 + sum_a c_a gbar_a and gbar_a is a copy average, so
        # its spectrum is s plus the N-copy means of spec(sum_a c_a G_a)
        for dim in (2, 3):
            for m in (0, 1, 2):
                obs = seeded_set(30, dim, m, index=m)
                kg = kg_build(obs, obs.expectations(random_density(30, dim)))
                for n in (1, 2, 3):
                    gamma = random_test_operator(30, dim ** n, index=n)
                    dense = np.linalg.eigvalsh(kg_project(kg, gamma, n))
                    c = np.array([np.trace(lifted_deriv(kg, a, n) @ gamma).real
                                  for a in range(m)])
                    s = (np.trace(tensor_power(kg.mu, n) @ gamma).real
                         - c @ kg.f)
                    x = np.linalg.eigvalsh(
                        sum((ca * g for ca, g in zip(c, obs.members)),
                            np.zeros((dim, dim), dtype=complex)))
                    means = sorted(s + np.mean(ks)
                                   for ks in itertools.product(x, repeat=n))
                    np.testing.assert_allclose(dense, means, rtol=0,
                                               atol=1e-14)

    def test_eigensolves_only_one_copy_operators(self, monkeypatch):
        cases = [(2, 3), (3, 2), (2, 6)]
        kgs = {(dim, n): [kg_build(obs, obs.expectations(
            random_density(31, dim))).lift(n) for obs in (
                seeded_set(31, dim, m, index=m) for m in (1, 2))]
            for dim, n in cases}
        shapes = []

        def recording(solver):
            def solve(a, *args, **kwargs):
                shapes.append(np.shape(a))
                return solver(a, *args, **kwargs)
            return solve

        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name,
                                recording(getattr(np.linalg, name)))
        for dim, n in cases:
            del shapes[:]
            positivity_diagnostic(kgs[dim, n], trials=30, seed=31)
            assert shapes and all(sh[-2:] == (dim, dim) for sh in shapes)

    def test_shared_draws_match_one_projector_calls(self):
        # at d = 2, N = 6 the 30 trials span several chunks, the last partial
        chunk = _CHUNK_ENTRIES // (2 ** 6) ** 2
        assert 30 > chunk and 30 % chunk
        cases = [(d, n) for d in (2, 3) for n in (1, 2, 3)] + [(2, 6)]
        for dim, n in cases:
            rho = random_density(27, dim, index=3)
            kgs = [kg_build(obs, obs.expectations(rho)).lift(n)
                   for obs in (seeded_set(27, dim, m, index=m)
                               for m in (1, 2))]
            both = positivity_diagnostic(kgs, trials=30, seed=27)
            assert both == [positivity_diagnostic([kg], trials=30,
                                                  seed=27)[0] for kg in kgs]

    @pytest.mark.parametrize("dims, trials, match", [
        ((2,), 0, "trials must be >= 1"), ((2,), -3, "trials must be >= 1"),
        ((), 5, "at least one projector"), ((2, 3), 5, "different dims")])
    def test_rejects_invalid_input(self, dims, trials, match):
        kgs = [kg_build(seeded_set(28, d, 1), [0.1]) for d in dims]
        with pytest.raises(ValueError, match=match):
            positivity_diagnostic(kgs, trials=trials, seed=0)

    def test_peak_memory_independent_of_trials(self):
        kg = kg_build(seeded_set(25, 2, 1), [0.1]).lift(7)
        peaks = []
        for trials in (2, 40):
            tracemalloc.start()
            positivity_diagnostic([kg], trials=trials, seed=25)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]


class TestGammaN:
    def test_vanishes_at_fixed_point(self):
        obs = seeded_set(17, 2, 1)
        kg = kg_build(obs, [0.2])
        for n in (1, 2, 3):
            assert gamma_n(kg.lift(n), kg.mu) < 1e-10

    def test_matches_lift_with_copy_averages(self):
        # gamma_n reads gbar_a(rho^N) as tr(G_a rho) tr(rho)^(N-1)
        for dim, m in ((2, 1), (2, 2), (3, 2)):
            obs = seeded_set(26, dim, m, index=m)
            kg = kg_build(obs, obs.expectations(random_density(26, dim)))
            rho = random_density(26, dim, index=1)
            for n in (1, 2, 3):
                for state in (rho, 2 * rho):
                    lifted = kg.lift(n)
                    assert abs(gamma_n(lifted, state)
                               - kg_gamma_n(lifted, state)) < 1e-12

    def test_range(self):
        obs = seeded_set(18, 2, 1)
        rho = random_density(18, 2)
        kg = kg_build(obs, [0.3])
        for n in (1, 2):
            assert 0.0 <= gamma_n(kg.lift(n), rho) <= 1 + 1e-9

    def test_sampling_and_sign_projector_oracle(self):
        obs = seeded_set(19, 2, 1)
        rho = random_density(19, 2)
        kg = kg_build(obs, [0.25])
        value = gamma_n(kg.lift(1), rho)
        delta = rho - kg_apply_state(kg.lift(1), rho)
        # every sampled test is dominated
        for i in range(1000):
            gamma = random_test_operator(19, 2, index=i)
            assert abs(np.trace(delta @ gamma).real) <= value + 1e-9
        # the sign projector attains the supremum
        pos, neg = pos_neg_parts(delta)
        attained = max(abs(np.trace(delta @ p).real)
                       for p in (np.sign(1) * _support(pos), _support(neg)))
        assert abs(attained - value) < 1e-9


def _support(h):
    w, v = np.linalg.eigh(h)
    cols = v[:, w > 1e-12]
    return cols @ cols.conj().T


class TestEpsilonChoices:
    def test_values(self):
        assert epsilon_choices(0.0) == (0.5, 0.5)
        assert epsilon_choices(0.5) == (0.25, 0.75)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError, match="extremal"):
            epsilon_choices(1.0)
        with pytest.raises(ValueError):
            epsilon_choices(-0.1)

    def test_pairing_constraint_slack(self):
        obs = seeded_set(20, 2, 1)
        rho = random_density(20, 2)
        sigma = random_density(20, 2, index=1)
        kg_sigma = kg_build(obs, obs.expectations(sigma))
        mu_rho = kg_build(obs, obs.expectations(rho)).mu
        cap = max(gamma_n(kg_sigma.lift(n), mu_rho) for n in (1, 2, 3))
        eps, eps_prime = epsilon_choices(cap)
        for n in (1, 2, 3):
            mu_n, kg_sigma_n = tensor_power(mu_rho, n), kg_sigma.lift(n)
            for i in range(20):
                gamma = random_test_operator(20, 2 ** n, index=100 * n + i)
                q_pair = (np.trace(mu_n @ gamma)
                          - np.trace(mu_n @ kg_apply_observable(
                              kg_sigma_n, gamma))).real
                assert eps_prime - q_pair >= eps - 1e-9


class TestNonlinearityWitness:
    def test_canonical_coarse_grain_not_affine(self):
        # dim 3 matters: for a qubit the MaxEnt replacement reduces to a
        # Bloch-vector projection and is affine
        hits = 0
        for seed in range(100):
            obs = seeded_set(seed, 3, 1)
            r1 = random_density(seed, 3)
            r2 = random_density(seed, 3, index=1)
            mixed = canonical_coarse_grain((r1 + r2) / 2, obs).mu
            averaged = (canonical_coarse_grain(r1, obs).mu
                        + canonical_coarse_grain(r2, obs).mu) / 2
            if trace_distance(mixed, averaged) > 1e-6:
                hits += 1
        assert hits >= 90

    def test_product_coarse_grain_not_affine(self):
        hits = 0
        for seed in range(100):
            r1 = random_density(seed, 4)
            r2 = random_density(seed, 4, index=1)
            mixed = product_coarse_grain((r1 + r2) / 2, (2, 2))
            averaged = (product_coarse_grain(r1, (2, 2))
                        + product_coarse_grain(r2, (2, 2))) / 2
            if trace_distance(mixed, averaged) > 1e-6:
                hits += 1
        assert hits >= 90
