import importlib.util
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from macrolab.cli import build_parser, config_from_args, main
from macrolab.coarsegrain import canonical_coarse_grain
from macrolab.entropy import relative_entropy
from macrolab.harness import (EXPERIMENTS, ExperimentConfig, csv_lines,
                              run_experiment, summary, write_csv)
from macrolab.maxent import ObservableSet, fit_maxent
from macrolab.operators import random_density, random_observables


def seeded_set(seed, dim, m, index=0):
    return ObservableSet(dim, tuple(random_observables(seed, dim, m, index=index)))


def checks(result):
    return {c.name: c for c in result.checks}


@pytest.fixture(scope="module")
def failing_product():
    # the last of these trials has slack -0.0341 at seed 0
    return run_experiment(ExperimentConfig(
        experiment="product", trials=746, seed=0))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="experiment"):
            ExperimentConfig(experiment="nope")
        with pytest.raises(ValueError, match="trials"):
            ExperimentConfig(experiment="process", trials=0)
        with pytest.raises(ValueError, match="epsilon"):
            ExperimentConfig(experiment="stein", epsilon=1.5)
        for name in ("stein", "kg-checks"):
            with pytest.raises(ValueError, match="n_max"):
                ExperimentConfig(experiment=name, n_max=0)
        for dims in ((0, 2), (2, 1)):
            with pytest.raises(ValueError, match="dims"):
                ExperimentConfig(experiment="product", dims=dims)

    def test_m_validation(self):
        for m in (0, -1):
            with pytest.raises(ValueError, match="m must be >= 1"):
                ExperimentConfig(experiment="process", dim=2, m=m)
        # process draws m observables on one dimension, 4 by default
        for dim, m in ((2, 4), (3, 9), (None, 16)):
            with pytest.raises(ValueError, match="m must be <="):
                ExperimentConfig(experiment="process", dim=dim, m=m)
        ExperimentConfig(experiment="process", dim=2, m=3)
        ExperimentConfig(experiment="process", m=15)
        # monotonicity clamps m to each dimension it cycles through
        ExperimentConfig(experiment="monotonicity", dim=2, m=15)


class TestProcessPipeline:
    def test_identity_process_same_observables(self):
        # U = 1 and {F_b} = {G_a}: nothing changes, slack 0
        obs = seeded_set(0, 4, 2)
        rho = random_density(0, 4)
        sigma = random_density(0, 4, index=1)
        mu_g = fit_maxent(obs, obs.expectations(rho))
        mu_gp = fit_maxent(obs, obs.expectations(sigma))
        mu_f = canonical_coarse_grain(mu_g.mu, obs)
        mu_fp = canonical_coarse_grain(mu_gp.mu, obs)
        before = relative_entropy(mu_g.mu, mu_gp.mu)
        after = relative_entropy(mu_f.mu, mu_fp.mu)
        assert abs(before - after) < 1e-9

    def test_total_coarse_graining(self):
        # empty final observable set: both final macrostates are uniform
        obs = seeded_set(1, 4, 2)
        empty = ObservableSet(4, ())
        rho = random_density(1, 4)
        mu_g = fit_maxent(obs, obs.expectations(rho))
        mu_f = canonical_coarse_grain(mu_g.mu, empty)
        np.testing.assert_allclose(mu_f.mu, np.eye(4) / 4, atol=1e-10)

    def test_sweep_passes(self):
        result = run_experiment(ExperimentConfig(
            experiment="process", trials=50, dim=4, m=2, seed=42))
        assert checks(result)["slack"].passed
        assert checks(result)["second_law"].passed
        assert checks(result)["slack"].value >= -1e-9


class TestSweeps:
    def test_monotonicity(self):
        result = run_experiment(ExperimentConfig(
            experiment="monotonicity", trials=60, seed=7))
        assert checks(result)["slack"].passed
        dims = {row[result.columns.index("dim")] for row in result.rows}
        assert dims == {2, 3, 4}

    def test_monotonicity_equal_states(self):
        obs = seeded_set(3, 3, 2)
        rho = random_density(3, 3)
        cg = canonical_coarse_grain(rho, obs)
        assert relative_entropy(cg.mu, cg.mu) < 1e-10

    def test_product(self):
        result = run_experiment(ExperimentConfig(
            experiment="product", trials=60, seed=8))
        assert checks(result)["slack"].passed
        assert checks(result)["marginal"].passed

    def test_product_2x3(self):
        result = run_experiment(ExperimentConfig(
            experiment="product", trials=20, seed=9, dims=(2, 3)))
        assert checks(result)["slack"].passed

    def test_lindblad(self):
        result = run_experiment(ExperimentConfig(
            experiment="lindblad", trials=60, seed=10))
        assert checks(result)["slack"].passed

    def test_stein(self):
        result = run_experiment(ExperimentConfig(
            experiment="stein", n_max=4, epsilon=0.5))
        assert checks(result)["rate_trend"].passed
        n_col = result.columns.index("N")
        assert [row[n_col] for row in result.rows] == [1, 2, 3, 4]

    def test_kg_checks(self):
        result = run_experiment(ExperimentConfig(
            experiment="kg-checks", trials=30, seed=11, n_max=2))
        assert result.all_pass
        assert "violation_fraction" in result.columns
        assert all(len(row) == len(result.columns) for row in result.rows)

class TestRecords:
    def test_pass_recomputable_from_row(self):
        result = run_experiment(ExperimentConfig(
            experiment="lindblad", trials=20, seed=12))
        for line in csv_lines(result, timestamp=False)[1:]:
            cols = line.split(",")
            slack = float(cols[5])
            assert (slack >= -1e-9) == (cols[6] == "1")

    def test_record_pass_flag(self, failing_product):
        cols = failing_product.columns
        row = dict(zip(cols, failing_product.rows[-1]))
        assert row["trial"] == 745
        assert row["slack"] == row["S_before"] - row["S_after"]
        assert row["slack"] < -0.03
        assert row["pass"] == 0


class TestChecks:
    def test_failing_check_names_itself(self, failing_product):
        slack = checks(failing_product)["slack"]
        assert not slack.passed
        assert abs(slack.value - -0.0341) < 1e-4
        assert slack.bound == -1e-9
        assert checks(failing_product)["marginal"].passed
        assert not failing_product.all_pass
        text = summary(failing_product)
        assert (f"check slack: FAIL, worst {slack.value:.3e}, "
                f"bound {slack.bound:.3e}") in text
        assert "check marginal: pass" in text
        assert "hard checks pass: False" in text

    def test_failing_run_exits_1(self, capsys):
        assert main(["product", "--trials", "746", "--seed", "0"]) == 1
        assert main(["product", "--trials", "745", "--seed", "0"]) == 0

    def test_kg_checks_are_named(self):
        result = run_experiment(ExperimentConfig(
            experiment="kg-checks", trials=5, seed=11, n_max=1))
        assert [c.name for c in result.checks] == [
            "defining_property", "linearity", "idempotency",
            "adjoint_expectations", "pairing_slack", "fixed_point"]


class TestDeterminism:
    def test_identical_config_identical_body(self, tmp_path):
        cfg = dict(experiment="monotonicity", trials=15, seed=3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_experiment(ExperimentConfig(**cfg)), str(a))
        write_csv(run_experiment(ExperimentConfig(**cfg)), str(b))
        body_a = a.read_text().splitlines()[1:]
        body_b = b.read_text().splitlines()[1:]
        assert body_a == body_b


class TestCLI:
    def test_basic_run(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(["lindblad", "--trials", "10", "--seed", "5",
                     "--out", str(out), "--summary"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# generated")
        assert lines[1] == "trial,dim,m,S_before,S_after,slack,pass"
        assert len(lines) == 12
        assert "pass fraction" in capsys.readouterr().err

    def test_stdout_without_out(self, capsys):
        code = main(["product", "--trials", "3", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("trial,dim,m,")

    @pytest.mark.parametrize("argv, message", [
        (["stein", "--n-max", "0"], "n_max must be >= 1"),
        (["product", "--dims", "1", "3"], "dims"),
        (["process", "--dim", "2", "--m", "4", "--trials", "1"],
         "m must be <= 3"),
        (["process", "--dim", "2", "--m", "-1", "--trials", "2"],
         "m must be >= 1"),
        # a flag the experiment does not read
        (["kg-checks", "--dim", "2", "--m", "9", "--trials", "1",
          "--n-max", "1"], "kg-checks does not read --dim, --m"),
        (["stein", "--seed", "3", "--n-max", "2"],
         "stein does not read --seed"),
        (["lindblad", "--m", "3", "--trials", "2"],
         "lindblad does not read --m"),
        (["product", "--dim", "3", "--trials", "2"],
         "product does not read --dim"),
        (["product", "--trials", "2", "--config", "x.json"], "--config"),
        # one point has no rate to compare with
        (["stein", "--n-max", "1"], "n_max must be >= 2"),
        # every rate is 0 at epsilon 1, so none tends to S(rho||sigma)
        (["stein", "--epsilon", "1", "--n-max", "3"], "epsilon must be < 1"),
    ])
    def test_invalid_config_is_a_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage: macrolab" in err and message in err
        assert "Traceback" not in err

    def test_sweeps_script_flags_are_read(self):
        script = Path(__file__).resolve().parents[1] / "scripts/run_sweeps.sh"
        configs = [config_from_args(build_parser().parse_args(
                       shlex.split(line)[1:]))
                   for line in script.read_text().splitlines()
                   if line.startswith("macrolab ")]
        assert [c.experiment for c in configs] == list(EXPERIMENTS)

    def test_stein_script_rates_are_the_cli_rates(self, monkeypatch, capsys):
        path = (Path(__file__).resolve().parents[1]
                / "scripts/stein_convergence.py")
        spec = importlib.util.spec_from_file_location("stein_convergence",
                                                      path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(sys, "argv", [str(path), "--n-max", "2"])
        script.main()
        diag = capsys.readouterr().out.strip().split("\n\n")[0].splitlines()
        assert diag[0].startswith("diag(0.9,0.1) vs uniform")
        rates = [row.split()[2] for row in diag[2:]]
        assert main(["stein", "--n-max", "2"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        col = header.split(",").index("rate")
        assert rates == [f"{float(row.split(',')[col]):.6f}" for row in rows]
        assert len(rates) == 2

    def test_summary_format(self):
        result = run_experiment(ExperimentConfig(
            experiment="lindblad", trials=5, seed=1))
        text = summary(result)
        assert "rows: 5" in text
        assert "pass fraction: 1.0000" in text
        assert "redraws: 0" in text
