"""Regenerate the committed fast-mode and event-mode figure goldens.

Usage: PYTHONPATH=src python tools/gen_fastmode_goldens.py [fast|event]

The mode (``fast`` by default) writes
``benchmarks/results/<mode>mode_<figure>.json``: every RunSpec of each
figure's quick spec set run in that mode (the vectorized engines or the
timed machine), plus one fig7 patternscan point (``<mode>mode_fig7.json``)
with its row profile, which event mode builds from the controller's
command log and fast mode from the replayed DRAM read stream. Each
record holds the full ``RunResult.to_dict()`` and the per-component stat
dicts, so a change to any cycle or counter shows up.

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

MODES = ("fast", "event")

#: The pinned fig7 point: the gathered stride-8 scan, small enough to
#: keep the golden test fast.
FIG7_LINES = 256

FIGURES = (*SPEC_FIGURES, "fig7")


def golden_specs(figure: str, mode: str) -> list[RunSpec]:
    """The specs pinned in ``<mode>mode_<figure>.json``."""
    if figure == "fig7":
        return [spec
                for spec in pattern_sweep_specs(lines=FIG7_LINES, mode=mode)
                if spec.params["variant"] == "gathered"
                and spec.params["stride"] == 8]
    return figure_specs(figure, QUICK, mode=mode)


def golden_record(spec: RunSpec) -> dict:
    """Everything one run reports, as plain JSON."""
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


def golden(figure: str, mode: str) -> dict:
    return {
        "figure": figure,
        "scale": QUICK.name,
        "records": [golden_record(spec) for spec in golden_specs(figure, mode)],
    }


def golden_path(figure: str, mode: str) -> pathlib.Path:
    return RESULTS / f"{mode}mode_{figure}.json"


def main(argv: list[str]) -> None:
    mode = argv[0] if argv else "fast"
    if mode not in MODES:
        raise SystemExit(f"unknown mode {mode!r}; expected 'fast' or 'event'")
    for figure in FIGURES:
        path = golden_path(figure, mode)
        payload = golden(figure, mode)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
