"""A finished event System is freed by reference counting alone.

Nothing a run leaves behind may hold the machine in a reference cycle
(a core's completion callback, a prepared workload's closures): with
the cyclic garbage collector off, the System must die as soon as the
run's record is dropped. Otherwise every spec of a sweep keeps its
whole machine, DRAM rows included, alive until the next collection.
"""

import gc
import weakref

import pytest

from repro.harness.common import QUICK
from repro.harness.patternscan import pattern_sweep_specs
from repro.harness.specsets import figure_specs, spec_label
from repro.perf.specs import execute_spec
from repro.sim.system import System

SPECS = [
    figure_specs("fig9", QUICK)[0],
    figure_specs("fig11", QUICK)[0],
    figure_specs("infer", QUICK)[0],
    pattern_sweep_specs(lines=64)[0],
]


@pytest.mark.parametrize("spec", SPECS, ids=spec_label)
def test_system_dies_without_cyclic_gc(spec, monkeypatch):
    systems = []
    build = System.__init__

    def recording_init(self, *args, **kwargs):
        build(self, *args, **kwargs)
        systems.append(weakref.ref(self))

    monkeypatch.setattr(System, "__init__", recording_init)
    gc.collect()
    gc.disable()
    try:
        record = execute_spec(spec)
        assert record.verified
        del record
        assert systems and all(ref() is None for ref in systems)
    finally:
        gc.enable()
