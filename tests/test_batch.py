"""Stacked execution: a result does not depend on the stack it was computed
in, and the sweeps' redraw and failure paths match a per-trial loop."""

import numpy as np
import pytest

import macrolab.harness as harness
from golden.record import CONFIGS
from macrolab.coarsegrain import canonical_coarse_grain
from macrolab.entropy import relative_entropy
from macrolab.harness import ExperimentConfig, run_experiment
from macrolab.maxent import (InfeasibleTargetError, ObservableSet, fit_maxent,
                             fit_stack)
from macrolab.operators import random_density, random_observables

SWEEPS = ("process", "monotonicity", "product", "lindblad")


def bits(rows):
    return [tuple(repr(x) for x in row) for row in rows]


def seeded_set(seed, dim, m, index=0):
    return ObservableSet(dim, tuple(random_observables(seed, dim, m,
                                                       index=index)))


@pytest.mark.parametrize("name", SWEEPS)
def test_rows_do_not_depend_on_run_length(name, experiment_run):
    # 7 is not a multiple of the (2, 3, 4) dimension cycle
    full, _ = experiment_run(name, **CONFIGS[name])
    short = run_experiment(ExperimentConfig(
        experiment=name, **{**CONFIGS[name], "trials": 7}))
    assert bits(short.rows) == bits([r for r in full.rows if r[0] < 7])
    assert [r[0] for r in short.rows] == list(range(7))
    trials = [r[0] for r in full.rows]
    assert trials == sorted(trials)


def test_fit_in_a_stack_equals_fit_alone():
    obs = [seeded_set(11, 4, 2, index=i) for i in range(50)]
    targets = np.stack([o.expectations(random_density(11, 4, index=i))
                        for i, o in enumerate(obs)])
    members = np.stack([o.stacked for o in obs])
    order = np.random.default_rng(3).permutation(50)
    stack = fit_stack(members, targets)
    shuffled = fit_stack(members[order], targets[order])
    assert all(e is None for e in stack.errors)
    for i in range(50):
        alone = fit_maxent(obs[i], targets[i])
        j = int(np.flatnonzero(order == i)[0])
        for fit, k in ((stack, i), (shuffled, j)):
            np.testing.assert_array_equal(fit.lam[k], alone.lam)
            np.testing.assert_array_equal(fit.mu[k], alone.mu)
            np.testing.assert_array_equal(fit.f[k], alone.f)
            assert fit.residual[k] == alone.fit_residual


def test_relative_entropy_in_a_stack_equals_pair_alone():
    for d in (2, 3, 4):
        rho = np.stack([random_density(5, d, index=i) for i in range(20)])
        sigma = np.stack([random_density(5, d, index=50 + i)
                          for i in range(20)])
        stack = relative_entropy(rho, sigma)
        assert stack.shape == (20,)
        for i in range(20):
            assert stack[i] == relative_entropy(rho[i], sigma[i])
        np.testing.assert_array_equal(relative_entropy(rho[:7], sigma[:7]),
                                      stack[:7])


class TestMixedStack:
    def test_infeasible_element_is_flagged_as_alone(self):
        feasible = seeded_set(2, 3, 2, index=0)
        other = seeded_set(2, 3, 2, index=1)
        top = float(np.linalg.eigvalsh(other.members[0])[-1])
        good = feasible.expectations(random_density(2, 3))
        bad = np.array([top + 0.5, 0.0])
        fit = fit_stack(np.stack([feasible.stacked, other.stacked]),
                        np.stack([good, bad]))
        with pytest.raises(InfeasibleTargetError) as alone:
            fit_maxent(other, bad)
        assert fit.errors[0] is None
        assert isinstance(fit.errors[1], InfeasibleTargetError)
        assert str(fit.errors[1]) == str(alone.value)
        assert "outside or on the boundary" in str(alone.value)
        solo = fit_maxent(feasible, good)
        np.testing.assert_array_equal(fit.lam[0], solo.lam)
        np.testing.assert_array_equal(fit.mu[0], solo.mu)
        with pytest.raises(InfeasibleTargetError):
            fit.state(1, other)

    def test_stack_shapes_are_checked(self):
        obs = seeded_set(2, 3, 2)
        with pytest.raises(ValueError, match="stacks"):
            fit_stack(obs.stacked, np.zeros(2))
        with pytest.raises(ValueError, match="finite"):
            fit_stack(obs.stacked[None], np.array([[np.nan, 0.0]]))


def process_per_trial(config):
    """The process sweep written as the per-trial loop: rows and redraws."""
    seed, m, d = config.seed, config.m, config.dim or 4
    rows, redraws = [], 0
    for trial in range(config.trials):
        g_obs = seeded_set(seed, d, m, index=trial * 100)
        f_obs = seeded_set(seed, d, m, index=trial * 100 + 1)
        prepared = []
        for offset in (0, 100):
            for k in range(20):
                rho = harness.random_densities(
                    seed, d, [trial * 1000 + offset + k])[0]
                try:
                    prepared.append(canonical_coarse_grain(rho, g_obs).mu)
                    break
                except InfeasibleTargetError:
                    redraws += 1
        u = harness.random_unitaries(seed, d, [trial])[0]
        final = [canonical_coarse_grain(u @ mu @ u.conj().T, f_obs).mu
                 for mu in prepared]
        rows.append((trial, d, m, relative_entropy(*prepared),
                     relative_entropy(*final)))
    return rows, redraws


def swap_draws(monkeypatch, name, bad_draw):
    """Route the stacked draw harness.<name> through the real one, then put
    bad_draw(seed, dim, index) in place of every element for which it
    returns an operator rather than None."""
    real = getattr(harness, name)

    def draws(s, d, indices):
        out = real(s, d, indices)
        for j, index in enumerate(indices):
            bad = bad_draw(s, d, int(index))
            if bad is not None:
                out[j] = bad
        return out
    monkeypatch.setattr(harness, name, draws)


def infeasible_draws(monkeypatch, seed, m, bad):
    """Make the density draws at the indices in bad return 10 G_1 of the
    trial's preparation observables: tr(G_1 10 G_1) = 10 lies outside G_1's
    spectrum, so the fit of that draw fails."""
    def draw(s, d, index):
        if index in bad:
            return 10 * random_observables(
                s, d, m, index=(index // 1000) * 100)[0]
        return None
    swap_draws(monkeypatch, "random_densities", draw)


class TestRedraws:
    def test_process_redraws_only_the_failing_draws(self, monkeypatch):
        config = ExperimentConfig(experiment="process", trials=7, seed=5,
                                  m=2)
        clean = run_experiment(config)
        assert clean.redraws == 0
        # first draw of mu_g in trial 3, first two of mu_gp in trial 5
        infeasible_draws(monkeypatch, 5, 2, {3000, 5100, 5101})
        result = run_experiment(config)
        rows, redraws = process_per_trial(config)
        assert result.redraws == redraws == 3
        assert bits(r[:5] for r in result.rows) == bits(rows)
        changed = [r[0] for r, c in zip(result.rows, clean.rows) if r != c]
        assert changed == [3, 5]

    def test_process_raises_when_every_draw_fails(self, monkeypatch):
        infeasible_draws(monkeypatch, 5, 2, {4100 + k for k in range(20)})
        with pytest.raises(InfeasibleTargetError, match="trial 4"):
            run_experiment(ExperimentConfig(experiment="process", trials=7,
                                            seed=5, m=2))

    def test_process_post_unitary_failure_raises_lowest_trial(
            self, monkeypatch):
        # a "unitary" 10 * 1 scales the evolved states out of the feasible
        # set in trials 2 and 5; the per-trial loop stops at trial 2
        def unitary(s, d, index):
            return 10 * np.eye(d) if index in (2, 5) else None
        swap_draws(monkeypatch, "random_unitaries", unitary)
        config = ExperimentConfig(experiment="process", trials=7, seed=5,
                                  m=2)
        with pytest.raises(InfeasibleTargetError) as loop:
            process_per_trial(config)
        with pytest.raises(InfeasibleTargetError) as stacked:
            run_experiment(config)
        assert str(stacked.value) == str(loop.value)

    def test_monotonicity_skips_a_trial_whose_fit_fails(self, monkeypatch):
        config = ExperimentConfig(experiment="monotonicity", trials=7,
                                  seed=5)
        clean = run_experiment(config)
        # sigma of trial 4 (index 9) is 10 G_1 of that trial's observables
        d, m = 3, 2

        def draw(s, dim, index):
            if index == 9:
                return 10 * random_observables(s, d, m, index=4)[0]
            return None
        swap_draws(monkeypatch, "random_densities", draw)
        result = run_experiment(config)
        assert result.redraws == 1
        assert bits(result.rows) == bits(r for r in clean.rows if r[0] != 4)
