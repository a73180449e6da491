"""Shared fixtures for the test suite."""

import time

import pytest

from macrolab.harness import ExperimentConfig, run_experiment


@pytest.fixture(scope="session")
def experiment_run():
    """run(experiment, **settings) -> (RunResult, seconds), once per session.

    The acceptance gate and the golden regression run the same full-size
    sweeps; the first caller pays for a run and records its wall time.
    """
    cache = {}

    def run(experiment, **settings):
        key = (experiment, tuple(sorted(settings.items())))
        if key not in cache:
            start = time.time()
            result = run_experiment(ExperimentConfig(experiment=experiment,
                                                     **settings))
            cache[key] = (result, time.time() - start)
        return cache[key]

    return run
