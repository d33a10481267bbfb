"""A run's RunResult and its metrics snapshot report the same counts.

Every quick spec of every figure, in both modes, plus the fig7 sweep
points, runs once with ``obs="metrics"``. The result's instruction,
load/store, cache, DRAM-command, row-buffer and writeback counts must
equal the totals over the snapshot's stat groups, and every DRAM column
command must be either a row hit or a row miss.
"""

import dataclasses

import pytest

from repro.harness.common import QUICK
from repro.harness.patternscan import pattern_sweep_specs
from repro.harness.specsets import SPEC_FIGURES, figure_specs, spec_label
from repro.perf.specs import execute_spec

#: RunResult field -> (snapshot counter, path prefix it is summed over).
FIELDS = {
    "instructions": ("instructions", "cpu."),
    "loads": ("loads", "cpu."),
    "stores": ("stores", "cpu."),
    "l1_hits": ("hits", "cache.l1."),
    "l1_misses": ("misses", "cache.l1."),
    "l2_hits": ("hits", "cache.l2"),
    "l2_misses": ("misses", "cache.l2"),
    "dram_reads": ("cmd_RD", "mem."),
    "dram_writes": ("cmd_WR", "mem."),
    "row_hits": ("row_hits", "mem."),
    "row_misses": ("row_misses", "mem."),
    "writebacks": ("writebacks", "cache.hierarchy"),
}


def _specs():
    for mode in ("event", "fast"):
        for figure in SPEC_FIGURES:
            for spec in figure_specs(figure, QUICK, mode=mode):
                yield f"{mode}-{figure}-{spec_label(spec)}", spec
        for spec in pattern_sweep_specs(lines=256, mode=mode):
            params = spec.params
            yield (f"{mode}-fig7-{params['variant']}-{params['stride']}",
                   spec)


CASES = list(_specs())


@pytest.mark.parametrize("spec", [spec for _, spec in CASES],
                         ids=[name for name, _ in CASES])
def test_result_fields_equal_snapshot_totals(spec):
    run = execute_spec(dataclasses.replace(spec, obs="metrics"))
    result, metrics = run.result, run.metrics
    fields = {name: getattr(result, name) for name in FIELDS}
    totals = {name: metrics.total(counter, prefix)
              for name, (counter, prefix) in FIELDS.items()}
    assert fields == totals
    assert (result.row_hits + result.row_misses
            == result.dram_reads + result.dram_writes)
