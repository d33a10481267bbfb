"""Exact golden regression tests for the timed event machine.

``benchmarks/results/eventmode_<figure>.json`` pins every quick event
spec of each figure's spec set, plus one fig7 patternscan point whose
row profile is built from the controller's command trace. Each record
holds the full ``RunResult.to_dict()`` (cycles, traffic, energy, extra)
and the per-component stat dicts, so the comparison is exact: a
performance change to the core, caches, DBI, controller or DRAM timing
must not move one cycle or counter. Regenerate with
``python tools/gen_fastmode_goldens.py event`` only when an intentional
accounting change lands.
"""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
RESULTS = ROOT / "benchmarks" / "results"


def _generator():
    path = ROOT / "tools" / "gen_fastmode_goldens.py"
    spec = importlib.util.spec_from_file_location("gen_fastmode_goldens", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _generator()


@pytest.mark.parametrize("figure", GEN.FIGURES)
def test_event_mode_records_match_golden(figure):
    golden = json.loads(GEN.golden_path(figure, "event").read_text())
    specs = GEN.golden_specs(figure, "event")
    assert [record["spec"] for record in golden["records"]] == [
        GEN.spec_label(spec) for spec in specs
    ]
    for spec, expected in zip(specs, golden["records"]):
        fresh = GEN.golden_record(spec)
        assert fresh == expected, {
            key: (expected.get(key), fresh.get(key))
            for key in sorted(set(expected) | set(fresh))
            if expected.get(key) != fresh.get(key)
        }


def test_every_quick_event_spec_is_pinned():
    pinned = sum(
        len(json.loads((RESULTS / f"eventmode_{figure}.json").read_text())
            ["records"])
        for figure in GEN.SPEC_FIGURES
    )
    assert pinned == 21


def test_fig7_point_pins_the_traced_row_profile():
    golden = json.loads((RESULTS / "eventmode_fig7.json").read_text())
    [record] = golden["records"]
    assert record["row_profile"]["activates"] > 0
