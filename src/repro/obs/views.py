"""Derived profiling views over a structured trace.

Bandwidth buckets and row-buffer locality used to require opting into
the controller's separate ``command_trace`` machinery before the run.
With the tracer, the ``dram-command`` category *is* the command trace:
these helpers rebuild ``(time, Command)`` tuples from trace events and
delegate to the aggregation logic in :mod:`repro.mem.profile`, so the
post-hoc analyses stay one code path whichever way the commands were
captured.
"""

from __future__ import annotations

from repro.dram.commands import Command, CommandKind
from repro.mem.profile import (
    BandwidthProfile,
    RowLocality,
    bandwidth_profile,
    row_locality,
)

_KIND_BY_VALUE = {kind.value: kind for kind in CommandKind}


def commands_from_trace(events: list[dict]) -> list[tuple[int, Command]]:
    """The ``(time, Command)`` tuples hiding in ``dram-command`` events.

    Events from other categories are ignored, so the full mixed trace
    of an observed run can be passed directly.
    """
    commands: list[tuple[int, Command]] = []
    for event in events:
        if event.get("cat") != "dram-command":
            continue
        kind = _KIND_BY_VALUE.get(event.get("name", ""))
        if kind is None:
            continue
        args = event.get("args", {})
        # The in-DRAM compute kinds carry extra fields that
        # Command validates on construction; reconstruct them from the
        # event args (the PIM executor always records them).
        extra: dict = {}
        if kind is CommandKind.MULTI_ROW_ACTIVATE:
            extra = {"rows": tuple(args.get("rows", (0, 1))),
                     "op": args.get("op", "AND")}
        elif kind is CommandKind.SHIFT:
            extra = {"amount": args.get("amount", 1),
                     "op": args.get("op", "left")}
        commands.append(
            (
                int(event["ts"]),
                Command(
                    kind=kind,
                    bank=args.get("bank", event.get("tid", 0)),
                    row=args.get("row", 0),
                    column=args.get("column", 0),
                    pattern=args.get("pattern", 0),
                    **extra,
                ),
            )
        )
    return commands


def bandwidth_view(
    events: list[dict],
    bucket_cycles: int = 1000,
    line_bytes: int = 64,
) -> BandwidthProfile:
    """Time-bucketed data-bus traffic of an observed run's trace."""
    return bandwidth_profile(
        commands_from_trace(events),
        bucket_cycles=bucket_cycles,
        line_bytes=line_bytes,
    )


def row_locality_view(events: list[dict]) -> RowLocality:
    """Per-bank activation / row-run locality of an observed run's trace."""
    return row_locality(commands_from_trace(events))
