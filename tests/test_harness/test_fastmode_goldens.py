"""Exact golden regression tests for the fast-mode figure results.

``benchmarks/results/fastmode_<figure>.json`` pins every quick fast spec
of each figure's spec set, plus the fast fig7 patternscan point with its
row profile, next to the event-mode goldens. Each record holds the full
``RunResult.to_dict()`` and the per-component stat dicts. The fast path
has no timing at all, so the comparison is exact: every functional
count must match byte-for-byte. Regenerate with
``python tools/gen_fastmode_goldens.py fast`` when an intentional
accounting change lands — and expect the equivalence battery
(``repro check``) to demand the event machine move with it.
"""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _generator():
    path = ROOT / "tools" / "gen_fastmode_goldens.py"
    spec = importlib.util.spec_from_file_location("gen_fastmode_goldens", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _generator()


@pytest.mark.parametrize("figure", GEN.FIGURES)
def test_fast_mode_result_matches_golden(figure):
    golden = json.loads(GEN.golden_path(figure, "fast").read_text())
    specs = GEN.golden_specs(figure, "fast")
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


def test_every_quick_fast_spec_is_pinned():
    pinned = sum(
        len(json.loads(GEN.golden_path(figure, "fast").read_text())["records"])
        for figure in GEN.SPEC_FIGURES
    )
    assert pinned == 21


def test_fig7_point_pins_the_replayed_row_profile():
    golden = json.loads(GEN.golden_path("fig7", "fast").read_text())
    [record] = golden["records"]
    assert record["result"]["extra"]["fast_path"] == 1.0
    assert record["row_profile"]["activates"] > 0
