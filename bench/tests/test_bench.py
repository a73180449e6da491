"""Self-tests of the benchmark itself.

    python3 -m pytest -q bench/tests

The last two tests run real workloads and take about a minute together.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import Op, Workload, sweeps_ops  # noqa: E402


@pytest.fixture(scope="module")
def ml():
    return run.import_macrolab()


def wrapped_names(package="macrolab"):
    return {(m.__name__, attr) for m in tracing.package_modules(package)
            for attr, value in vars(m).items()
            if hasattr(value, "__wrapped__")}


def test_self_time_subtracts_direct_children_only():
    # outer [0, 20] holds mid [1, 11], which holds leaf [2, 5]; then leaf
    # [12, 19] sits directly under outer
    ticks = iter([0.0, 1.0, 2.0, 5.0, 11.0, 12.0, 19.0, 20.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("m.leaf", lambda: None)
    mid = tracer.wrap("m.mid", lambda: leaf())
    outer = tracer.wrap("m.outer", lambda: (mid(), leaf()))
    outer()
    t = tracer.table()
    assert t.self_s("m.outer") == 20 - 10 - 7
    assert t.self_s("m.mid") == 10 - 3
    assert t.self_s("m.leaf") == 3 + 7
    assert t.calls("m.leaf") == 2
    assert t.under("m.mid").tolist() == [False, False, True, False]
    assert t.under("m.outer").tolist() == [False, True, True, True]


def test_raised_calls_are_flagged_and_closed():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("no")

    fn = tracer.wrap("m.boom", boom)
    with pytest.raises(ValueError):
        fn()
    t = tracer.table()
    assert t.raised.tolist() == [True]
    assert t.end[0] >= t.start[0]


def test_wrapper_frames_are_recognised():
    frames = []
    tracer = tracing.Tracer()
    tracer.wrap("m.f", lambda: frames.append(sys._getframe(1)))()
    assert tracing.in_wrapper(frames[0])
    assert not tracing.in_wrapper(sys._getframe())


def test_hang_guard_inside_a_traced_call_keeps_spans_in_step():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("m.leaf", lambda: None)

    def busy():
        while True:
            leaf()

    outer = tracer.wrap("m.outer", busy)
    p = run.run_pass([Op("busy", lambda: outer())], limit_s=0.3)
    assert p["ops"][0]["status"] == "timeout"
    n = len(tracer.span_name)
    assert {len(tracer.parent), len(tracer.size), len(tracer.start),
            len(tracer.end), len(tracer.raised)} == {n}
    assert tracer._stack == []
    t = tracer.table()
    assert t.raised[0] and t.calls("m.outer") == 1
    assert (t.parent[1:] == 0).all()


def test_traced_run_restores_every_binding(ml):
    modules = tracing.package_modules("macrolab")
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            wrapped = wrapped_names()
            # imported names are rebound too, not only the defining module
            assert ("macrolab.operators", "eig") in wrapped
            assert ("macrolab.maxent", "eig") in wrapped
            assert ("macrolab.harness", "relative_entropy") in wrapped
            assert ("macrolab", "fit_maxent") in wrapped
            ml.harness.run_experiment(ml.harness.ExperimentConfig(
                experiment="monotonicity", trials=3, seed=1))
            raise RuntimeError("leave the block by an exception")
    assert wrapped_names() == set()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    t = tracer.table()
    assert t.calls("operators.eig") > 0
    assert t.calls("harness.run_experiment") == 1


def test_untraced_passes_install_no_wrappers(ml):
    seen = []

    def probe():
        seen.append(bool(wrapped_names()))
        return ["1"], True

    workload = Workload("probe", 5.0, None, None)
    run.measure(workload, [Op("probe", probe)], 0.0, tracer=None)
    assert seen == [False, False]
    run.measure(workload, [Op("probe", probe)], 0.0, tracer=tracing.Tracer())
    assert seen[2:] == [False, True]


def test_hang_guard_times_out_and_the_pass_goes_on():
    def spin():
        while True:
            pass

    p = run.run_pass([Op("spin", spin), Op("after", lambda: (["1"], True))],
                     limit_s=0.5)
    assert [r["status"] for r in p["ops"]] == ["timeout", "ok"]
    assert p["ops"][0]["s"] < 5


def test_program_failures_are_counted():
    def raises():
        raise ValueError("gamma must lie in [0, 1)")

    p = run.run_pass([Op("a", raises), Op("b", lambda: (["1"], False)),
                      Op("c", lambda: (["1"], True))], limit_s=5)
    assert [r["status"] for r in p["ops"]] == ["raised", "checks", "ok"]
    # the raised operation stopped part way; the other two completed
    assert run.op_seconds(p) == (p["ops"][1]["s"] + p["ops"][2]["s"]) / 2


def test_operations_are_counted_once_however_many_passes():
    def result(key, status):
        return {"key": key, "s": 1.0, "status": status}

    two = [{"ops": [result("a", "ok"), result("b", "raised")]},
           {"ops": [result("a", "ok"), result("b", "raised")]}]
    three = two + [{"ops": [result("a", "timeout"), result("b", "raised")]}]
    assert run.failed_operations(two) == (["a", "b"], ["b"])
    assert run.failed_operations(three) == (["a", "b"], ["a", "b"])


def test_reference_comparison_uses_the_stated_tolerance():
    ref = ["N,prob", "1,0.5", "2,inf", "3,0.0"]
    assert run.body_mismatch(["N,prob", "1,0.5000000001", "2,inf",
                              "3,1e-13"], ref) is None
    assert run.body_mismatch(["N,prob", "1,0.50001", "2,inf", "3,0.0"],
                             ref).startswith("line 2")
    assert run.body_mismatch(["N,prob", "1,0.5", "2,7.0", "3,0.0"], ref)
    assert run.body_mismatch(ref[:3], ref)


def test_judge_marks_mismatch_and_nondeterminism():
    def result(key, body):
        return {"key": key, "s": 1.0, "status": "ok", "detail": "",
                "body": body}

    passes = [{"ops": [result("a", ["1.0"]), result("b", ["2.0"])]},
              {"ops": [result("a", ["1.0"]), result("b", ["2.5"])]}]
    run.judge(passes, {"a": ["1.1"]})
    assert [r["status"] for p in passes for r in p["ops"]] == \
        ["mismatch", "ok", "mismatch", "nondeterministic"]


def test_seed42_sweeps_counts_are_exact(ml):
    """Traced counts of one sweeps pass at seed 42 (about 12 s)."""
    tracer = tracing.Tracer()
    with tracer.installed():
        p = run.run_pass(sweeps_ops(ml, 42), limit_s=60)
    assert [r["status"] for r in p["ops"]] == ["ok"] * 4
    m = tracing.layer_metrics(tracer.table())
    assert m["maxent.fit_maxent.calls"] == 6000
    assert m["maxent.newton_iters"] == 21108
    assert m["maxent.backtracks"] == 0
    assert m["maxent.fit_ok_ratio"] == 1.0
    assert m["operators.eig.calls"] == m["operators.eig.calls.le4"] == 102324
    assert m["hypotest.np_optimal_test.calls"] == 0


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_the_declared_ones(trace):
    """The kg workload through the command line (about 20 s each)."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "kg",
         "--seed", "42", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=300).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]} for m in section}
    assert result["correct"] is True
    # 16 seeds, 4 of which raise, however many passes ran
    assert (result["attempted"], result["failed"]) == (16, 4)
    if trace:
        assert result["metrics"]["operators.embed_at_slot.calls"]["value"] \
            == 100872
