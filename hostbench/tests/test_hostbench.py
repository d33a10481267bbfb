"""Tests of the benchmark itself: span arithmetic, wrapping, metric names,
and a tiny smoke pass of every workload.

Run from the repository root: ``python3 -m pytest hostbench/tests``.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import re

import pytest

from hostbench import layers
from hostbench.layers import LAYERS, SpanTracer, _wrap, installed
from hostbench.measure import (
    END_TO_END,
    PER_LAYER,
    Pass,
    Run,
    end_to_end_metrics,
    measure,
    per_layer_metrics,
)
from hostbench.workloads import WORKLOADS
from repro.harness.common import Scale

ROOT = pathlib.Path(__file__).resolve().parents[2]

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

TINY = Scale(
    name="tiny",
    db_tuples=512,
    db_transactions=20,
    htap_tuples=1024,
    htap_l2_size=16 * 1024,
    gemm_sizes=(16,),
)


def fake_clock(*ticks: float):
    return iter(ticks).__next__


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_spans():
    # a [0, 10] contains b [1, 4], which contains a [2, 3].
    tracer = SpanTracer(layers=("a", "b"), clock=fake_clock(0, 1, 2, 3, 4, 10))
    tracer.enter("a")
    tracer.enter("b")
    tracer.enter("a")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    assert tracer.self_s == {"a": 10 - 3 + 1, "b": 3 - 1}
    assert tracer.calls == {"a": 2, "b": 1}
    assert sum(tracer.self_s.values()) == 10


def test_sibling_spans_both_charge_the_parent():
    tracer = SpanTracer(layers=("a", "b"),
                        clock=fake_clock(0, 1, 2, 5, 7, 9))
    tracer.enter("a")
    for _ in range(2):
        tracer.enter("b")
        tracer.exit()
    tracer.exit()
    assert tracer.self_s == {"a": 9 - 1 - 2, "b": 1 + 2}


def test_same_layer_call_opens_no_span():
    tracer = SpanTracer(layers=("a",), clock=fake_clock(0, 5))
    inner = _wrap(lambda x: x + 1, "a", tracer, ("lines", lambda a, r: 1))
    outer = _wrap(lambda x: inner(inner(x)), "a", tracer, None)
    tracer.work["lines"] = 0
    assert outer(1) == 3
    assert tracer.calls == {"a": 1}
    assert tracer.self_s == {"a": 5}
    assert tracer.work["lines"] == 2


def test_wrapper_closes_span_when_the_call_raises():
    tracer = SpanTracer(layers=("a",), clock=fake_clock(0, 2))

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        _wrap(boom, "a", tracer, None)()
    assert tracer.current is None
    assert tracer.calls == {"a": 1}


# ----------------------------------------------------------------------
# Wrapper install and restore
# ----------------------------------------------------------------------
def _bindings():
    """Every place a wrapped entry point can be reached from, by identity."""
    import repro.db.engine
    import repro.infer.generators as generators
    from repro.dram.bank import Bank
    from repro.sim.system import System

    return {
        "engine.make_rows": repro.db.engine.make_rows,
        "workload.make_rows": importlib.import_module(
            "repro.db.workload").make_rows,
        "PREPARERS.gemv": generators.PREPARERS["gemv"],
        "Bank.earliest_for_access": Bank.__dict__["earliest_for_access"],
        "System.run": System.__dict__["run"],
    }


def test_install_wraps_every_binding_and_restores_after_a_raise():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with installed(SpanTracer()):
            during = _bindings()
            assert all(during[k] is not before[k] for k in before)
            assert during["engine.make_rows"] is during["workload.make_rows"]
            raise RuntimeError("pass failed")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_wrapped_entry_points_count_calls():
    from repro.db.schema import TableSchema
    from repro.db.workload import make_rows

    tracer = SpanTracer()
    with installed(tracer):
        import repro.db.engine

        repro.db.engine.make_rows(TableSchema(), 8)
    assert tracer.calls["workload"] == 1
    assert tracer.self_s["workload"] > 0
    assert repro.db.engine.make_rows is make_rows


def test_every_layer_target_exists():
    for targets in LAYERS.values():
        for module_name, target in targets:
            owner = importlib.import_module(module_name)
            for part in target.split("."):
                owner = getattr(owner, part)
            assert callable(owner), target
    for key in layers.WORK_COUNTERS:
        assert any(key in targets for targets in LAYERS.values()), key


# ----------------------------------------------------------------------
# Exact-count check
# ----------------------------------------------------------------------
def _pass(cycles: int) -> Pass:
    return Pass(wall_s=1.0, raw_wall_s=1.0, setup_s=0.1, run_s=0.5,
                instructions=10, failed=0,
                counters=[["a", {"cycles": cycles}], ["b", {"cycles": 1}]],
                exact={})


def test_a_pass_whose_counters_differ_fails_all_its_operations():
    run = Run(specs=["a", "b"], warmup=_pass(7),
              passes=[_pass(7), _pass(8), _pass(7)], traced=[])
    assert run.attempted == 8
    assert run.failed == 2
    assert [p.failed for p in run.passes] == [0, 2, 0]
    assert end_to_end_metrics(run)["verified_share"] == 1 - 2 / 8


# ----------------------------------------------------------------------
# Metric names and BENCHMARK.json
# ----------------------------------------------------------------------
def test_metric_names_and_units_use_the_allowed_charset():
    for name, unit in {**END_TO_END, **PER_LAYER}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit


def test_benchmark_json_declares_the_metrics_and_workloads():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER


# ----------------------------------------------------------------------
# Smoke pass of each workload at a tiny size
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_pass_has_no_failures(name):
    specs = WORKLOADS[name].specs(seed=5, scale=TINY, sweep_lines=64)
    run = measure(specs, seconds=0, trace=True, min_passes=1)
    assert run.attempted == 3 * len(specs)
    assert run.failed == 0
    per_layer = per_layer_metrics(run)
    assert per_layer["failed_share"] == 0
    assert set(per_layer) == set(PER_LAYER)
    end_to_end = end_to_end_metrics(run)
    assert set(end_to_end) == set(END_TO_END)
    assert end_to_end["verified_share"] == 1.0
    assert all(value > 0 for value in end_to_end.values())
