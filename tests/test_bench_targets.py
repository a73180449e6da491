"""The benchmark's tracer (bench/tracing.py) wraps library functions by
name; a deletion or a rename in src/ that drops one of them breaks traced
benchmark runs.  This catches it in the library's own suite."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_targets() -> dict[str, tuple[str, ...]]:
    """TARGETS as written in bench/tracing.py, read without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"no TARGETS in {TRACING}")


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in load_targets().items()
    for name in names])
def test_traced_target_exists(module, name):
    assert callable(getattr(importlib.import_module(f"macrolab.{module}"),
                            name, None))
