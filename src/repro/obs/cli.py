"""CLI verbs: ``python -m repro trace <figure>`` and ``repro metrics <figure>``.

``trace`` runs a figure's representative spec set with the event tracer
enabled and writes one Chrome-trace JSON file (validated against the
schema before it touches disk) that loads directly in Perfetto.
``metrics`` runs the same specs with metrics-only observation and dumps
the merged registry snapshot as JSON.

Observed runs flow through the normal pool + result cache — the
``obs`` flag on each spec keeps their cache entries separate from
plain runs, so tracing a figure never poisons (or is served from) the
untraced cache population.
"""

from __future__ import annotations

import pathlib

from repro.harness.common import scale_by_name
from repro.harness.specsets import SPEC_FIGURES, figure_specs, spec_label
from repro.mem.profile import bandwidth_profile, row_locality
from repro.obs.session import ObsRun
from repro.obs.tracer import chrome_trace, validate_chrome_trace


def _observed_specs(figure: str, scale_name: str, obs: str):
    import dataclasses

    scale = scale_by_name(scale_name)
    specs = [
        dataclasses.replace(spec, obs=obs)
        for spec in figure_specs(figure, scale)
    ]
    return scale, specs


def run_trace(
    figure: str,
    scale_name: str = "quick",
    jobs: int | None = None,
    out: str | None = None,
    detail: bool = False,
    limit: int = 1_000_000,
) -> int:
    """Run ``figure`` traced; write (validated) Chrome-trace JSON."""
    import json
    import os

    from repro.perf.pool import run_specs

    obs = "trace-detail" if detail else "trace"
    scale, specs = _observed_specs(figure, scale_name, obs)
    print(f"tracing {figure} at scale '{scale.name}' "
          f"({len(specs)} runs, limit {limit} events/run)")
    os.environ["REPRO_TRACE_LIMIT"] = str(limit)
    try:
        records = run_specs(specs, jobs=jobs)
    finally:
        del os.environ["REPRO_TRACE_LIMIT"]

    runs = []
    logs = []
    dropped = 0
    for spec, record in zip(specs, records):
        if not isinstance(record, ObsRun) or record.trace_events is None:
            raise RuntimeError(
                f"run {spec_label(spec)} returned no trace; "
                "was the cache populated by a non-obs build?"
            )
        runs.append((spec_label(spec), record.trace_events))
        logs.append(record.command_log)
        dropped += record.dropped_events

    payload = chrome_trace(runs, dropped=dropped)
    count = validate_chrome_trace(payload)

    path = pathlib.Path(out) if out else (
        pathlib.Path("traces") / f"{figure}-{scale.name}.json"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, separators=(",", ":"))
        handle.write("\n")

    # The summaries read the whole command log, which the per-run
    # event limit never truncates.
    for (label, events), log in zip(runs, logs):
        locality = row_locality(log)
        bandwidth = bandwidth_profile(log)
        print(
            f"  {label:<28} {len(events):>8} events"
            f"  row-run {locality.mean_row_run:6.1f}"
            f"  avg bus {bandwidth.average_bytes_per_cycle():5.2f} B/cyc"
        )
    if dropped:
        print(f"  note: {dropped} events dropped (per-run limit {limit})")
    print(f"wrote {path} ({count} events) -- "
          "open in https://ui.perfetto.dev")
    return 0


def run_metrics(
    figure: str,
    scale_name: str = "quick",
    jobs: int | None = None,
    out: str | None = None,
) -> int:
    """Run ``figure`` with metrics observation; dump the snapshot JSON."""
    from repro.obs.registry import MetricsSnapshot
    from repro.perf.pool import run_specs

    scale, specs = _observed_specs(figure, scale_name, "metrics")
    print(f"collecting metrics for {figure} at scale '{scale.name}' "
          f"({len(specs)} runs)")
    records = run_specs(specs, jobs=jobs)

    merged = MetricsSnapshot()
    for spec, record in zip(specs, records):
        if not isinstance(record, ObsRun):
            raise RuntimeError(f"run {spec_label(spec)} returned no metrics")
        # Namespace each run so counters from different layouts never
        # collapse into one ambiguous number.
        label = spec_label(spec).replace(" ", "_")
        namespaced = MetricsSnapshot(
            counters={
                f"{label}.{path}": values
                for path, values in record.metrics.counters.items()
            },
            histograms={
                f"{label}.{path}": digest
                for path, digest in record.metrics.histograms.items()
            },
        )
        merged = merged.merge(namespaced)

    text = merged.to_json()
    if out:
        path = pathlib.Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
        print(f"wrote {path} ({len(merged.paths())} component paths)")
    else:
        print(text)
    return 0


__all__ = ["SPEC_FIGURES", "run_metrics", "run_trace"]
