"""Regenerate the committed fast-mode and event-mode figure goldens.

Usage: PYTHONPATH=src python tools/gen_fastmode_goldens.py [fast|event]

``fast`` (the default) writes ``benchmarks/results/fastmode_<figure>.json``:
the first RunSpec of each figure's fast spec set at the quick scale,
executed on the vectorized engine, pinned as a flat result dict.

``event`` writes ``benchmarks/results/eventmode_<figure>.json``: every
RunSpec of each figure's quick event spec set on the timed machine, plus
one fig7 patternscan point (``eventmode_fig7.json``) whose row profile
comes from the controller's command trace. Each record holds the full
``RunResult.to_dict()`` and the per-component stat dicts, so a change
to any cycle or counter of the event machine shows up.

Both paths are fully deterministic, so these are byte-stable; regenerate
only when an intentional accounting change lands.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.harness.common import QUICK
from repro.harness.patternscan import pattern_sweep_specs
from repro.harness.specsets import SPEC_FIGURES, figure_specs, spec_label
from repro.perf.specs import RunSpec, execute_spec

RESULTS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "results"

#: The pinned fig7 point: the gathered stride-8 scan, small enough to
#: keep the golden test fast.
FIG7_LINES = 256


def golden_record(figure: str) -> dict:
    spec = figure_specs(figure, QUICK, mode="fast")[0]
    record = execute_spec(spec)
    return {
        "figure": figure,
        "scale": QUICK.name,
        "spec": spec_label(spec),
        "verified": bool(record.verified),
        "answer": getattr(record, "answer", None),
        "result": record.result.to_dict(),
    }


def event_specs(figure: str) -> list[RunSpec]:
    """The event-mode specs pinned in ``eventmode_<figure>.json``."""
    if figure == "fig7":
        return [spec for spec in pattern_sweep_specs(lines=FIG7_LINES)
                if spec.params["variant"] == "gathered"
                and spec.params["stride"] == 8]
    return figure_specs(figure, QUICK, mode="event")


def event_record(spec: RunSpec) -> dict:
    """Everything one event run reports, as plain JSON."""
    record = execute_spec(spec)
    entry = {
        "spec": spec_label(spec),
        "verified": bool(record.verified),
        "answer": getattr(record, "answer", None),
        "result": record.result.to_dict(),
        "component_stats": getattr(record, "component_stats", None),
    }
    if hasattr(record, "row_profile"):
        entry["row_profile"] = record.row_profile
    # Round-trip through JSON so the record compares equal to the file.
    return json.loads(json.dumps(entry, sort_keys=True))


def event_golden(figure: str) -> dict:
    return {
        "figure": figure,
        "scale": QUICK.name,
        "records": [event_record(spec) for spec in event_specs(figure)],
    }


EVENT_FIGURES = (*SPEC_FIGURES, "fig7")


def main(argv: list[str]) -> None:
    mode = argv[0] if argv else "fast"
    if mode not in ("fast", "event"):
        raise SystemExit(f"unknown mode {mode!r}; expected 'fast' or 'event'")
    figures = SPEC_FIGURES if mode == "fast" else EVENT_FIGURES
    for figure in figures:
        if mode == "fast":
            payload = golden_record(figure)
        else:
            payload = event_golden(figure)
        path = RESULTS / f"{mode}mode_{figure}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
