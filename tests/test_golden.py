"""Golden regression: the six scripts/run_sweeps.sh experiments against the
CSV bodies recorded in tests/golden/ by tests/golden/record.py.

Numeric fields must match within 1e-12 absolute and text fields exactly.
The tolerance is absolute because near-zero slacks and gamma_N values move
by large relative amounts at 1e-15.
"""

import math
from pathlib import Path

import pytest

from golden.record import CONFIGS
from macrolab.harness import csv_lines

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
ABS_TOL = 1e-12


def _number(field):
    try:
        x = float(field)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


@pytest.mark.parametrize("name", list(CONFIGS))
def test_matches_golden(name, experiment_run):
    result, _ = experiment_run(name, **CONFIGS[name])
    got = csv_lines(result, timestamp=False)
    want = (GOLDEN_DIR / f"{name}.csv").read_text().splitlines()
    assert got[0] == want[0]
    assert len(got) == len(want)
    for line, (row_got, row_want) in enumerate(zip(got[1:], want[1:]), 1):
        fields_got, fields_want = row_got.split(","), row_want.split(",")
        assert len(fields_got) == len(fields_want), f"row {line}"
        for col, g, w in zip(want[0].split(","), fields_got, fields_want):
            x, y = _number(g), _number(w)
            if x is None or y is None:
                assert g == w, f"row {line} {col}: {g} != {w}"
            else:
                assert abs(x - y) <= ABS_TOL, f"row {line} {col}: {g} vs {w}"
