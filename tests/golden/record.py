"""Record the golden CSV bodies that tests/test_golden.py compares against.

    PYTHONPATH=src python tests/golden/record.py

Runs the six experiments at their scripts/run_sweeps.sh settings and writes
each CSV body (no timestamp line) to tests/golden/<experiment>.csv.  Re-record
only when an output is meant to change, and say why in CHANGES.md.
"""

from pathlib import Path

from macrolab.harness import ExperimentConfig, csv_lines, run_experiment

GOLDEN_DIR = Path(__file__).resolve().parent

# scripts/run_sweeps.sh, one entry per experiment
CONFIGS = {
    "process": dict(trials=1000, dim=4, m=2, seed=42),
    "monotonicity": dict(trials=1000, seed=42),
    "product": dict(trials=1000, seed=42),
    "lindblad": dict(trials=1000, seed=42),
    "stein": dict(n_max=10, epsilon=0.5),
    "kg-checks": dict(trials=100, seed=42, n_max=3),
}


def main() -> None:
    for name, kwargs in CONFIGS.items():
        result = run_experiment(ExperimentConfig(experiment=name, **kwargs))
        body = csv_lines(result, timestamp=False)
        (GOLDEN_DIR / f"{name}.csv").write_text("\n".join(body) + "\n")
        print(f"{name}: {len(body) - 1} rows")


if __name__ == "__main__":
    main()
