"""Structured event tracer with Chrome-trace-format export.

The tracer records *spans* (``ph: "X"`` complete events with a
duration), *instant* events, and *counter* samples, each tagged with a
category: ``core``, ``cache``, ``mshr``, ``controller`` or ``engine``.
Components hold a ``tracer`` attribute that is ``None`` by default —
the hooks are a single identity check on paths that already do real
work, and the engine's dispatch loop keeps a completely untraced fast
path — so a run without tracing pays nothing.

DRAM commands are not tracer events: controllers and PIM executors
append them to a ``(cycle, Command)`` command log, and
:func:`command_events` renders that log as the ``dram-command``
category at export.

Export is Chrome trace format (the JSON object form), loadable in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``. Timestamps
are simulated CPU cycles written into the ``ts``/``dur`` microsecond
fields: 1 cycle renders as 1 us, so on-screen times are cycle counts.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable

from repro.dram.commands import Command
from repro.errors import ReproError

#: The categories the simulator emits; validation rejects others so a
#: mistyped category fails a test instead of silently vanishing from
#: Perfetto's category filter.
CATEGORIES = ("core", "cache", "mshr", "controller", "dram-command", "engine")

#: Event phases this tracer produces.
_PHASES = ("X", "i", "C", "M")


class Tracer:
    """Append-only event recorder with a hard event cap.

    ``max_events`` bounds memory (and export size); once hit, further
    events are counted in ``dropped`` rather than stored, and the
    export notes the truncation. ``detail=True`` additionally records
    one instant event per engine dispatch — the full command-level
    timeline, at a large constant factor in trace size.
    """

    def __init__(self, max_events: int = 1_000_000, detail: bool = False) -> None:
        self.events: list[dict] = []
        self.max_events = max_events
        self.dropped = 0
        self.detail = detail
        self._category_cache: dict[type, str] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _emit(self, event: dict) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    def instant(
        self,
        category: str,
        name: str,
        ts: int,
        tid: int = 0,
        args: dict | None = None,
    ) -> None:
        """A point-in-time event (``ph: "i"``, thread scope)."""
        event = {"name": name, "cat": category, "ph": "i", "ts": ts,
                 "pid": 0, "tid": tid, "s": "t"}
        if args:
            event["args"] = args
        self._emit(event)

    def complete(
        self,
        category: str,
        name: str,
        ts: int,
        dur: int,
        tid: int = 0,
        args: dict | None = None,
    ) -> None:
        """A span (``ph: "X"``) from ``ts`` lasting ``dur`` cycles."""
        event = {"name": name, "cat": category, "ph": "X", "ts": ts,
                 "dur": dur, "pid": 0, "tid": tid}
        if args:
            event["args"] = args
        self._emit(event)

    def counter(
        self,
        category: str,
        name: str,
        ts: int,
        values: dict[str, float],
        tid: int = 0,
    ) -> None:
        """A counter sample (``ph: "C"``); Perfetto plots each key."""
        self._emit({"name": name, "cat": category, "ph": "C", "ts": ts,
                    "pid": 0, "tid": tid, "args": dict(values)})

    def engine_event(self, ts: int, callback: Callable[..., Any]) -> None:
        """One engine dispatch (recorded only when ``detail`` is on)."""
        if not self.detail:
            return
        owner = getattr(callback, "__self__", None)
        if owner is None:
            category = "engine"
        else:
            owner_type = type(owner)
            category = self._category_cache.get(owner_type)
            if category is None:
                category = _category_for(owner_type)
                self._category_cache[owner_type] = category
        self.instant(
            category, getattr(callback, "__qualname__", repr(callback)), ts
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_chrome(self, label: str | None = None) -> dict:
        """The Chrome-trace JSON object for this tracer's events."""
        return chrome_trace([(label or "repro", self.events)],
                            dropped=self.dropped)

    def write_chrome(self, path: str | os.PathLike,
                     label: str | None = None) -> None:
        payload = self.to_chrome(label)
        with open(path, "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))
            handle.write("\n")


def _category_for(owner_type: type) -> str:
    """Map an event callback's owner to a trace category by type name."""
    name = owner_type.__name__
    if "Core" in name:
        return "core"
    if "Controller" in name:
        return "controller"
    if "Hierarchy" in name or "Cache" in name:
        return "cache"
    return "engine"


def command_events(log: list[tuple[int, Command]]) -> list[dict]:
    """A DRAM command log as ``dram-command`` instants, one per command.

    Each instant is named by the command kind (``ACT``, ``RD``,
    ``MRA``...) on the issuing bank's track (all-bank ``REF`` on track
    0) and carries the bank, row, column and pattern, plus the MRA/SHIFT
    ``rows``/``op``/``amount`` fields when set.
    """
    events = []
    for cycle, command in log:
        args = {"bank": command.bank, "row": command.row,
                "column": command.column, "pattern": command.pattern}
        if command.rows:
            args["rows"] = list(command.rows)
        if command.op:
            args["op"] = command.op
        if command.amount:
            args["amount"] = command.amount
        events.append({"name": command.kind.value, "cat": "dram-command",
                       "ph": "i", "ts": cycle, "pid": 0,
                       "tid": max(command.bank, 0), "s": "t", "args": args})
    return events


def chrome_trace(
    runs: list[tuple[str, list[dict]]], dropped: int = 0
) -> dict:
    """Combine per-run event lists into one Chrome-trace JSON object.

    Each run becomes its own process (``pid``), named via a metadata
    event, so Perfetto shows one labelled track group per simulation
    even though every engine's clock starts at cycle 0.
    """
    events: list[dict] = []
    for pid, (label, run_events) in enumerate(runs):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "ts": 0, "args": {"name": label},
        })
        for event in run_events:
            events.append({**event, "pid": pid})
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "cpu-cycles (1 cycle rendered as 1 us)",
            "generator": "repro.obs",
            "dropped_events": dropped,
        },
    }


def validate_chrome_trace(trace: dict | str | os.PathLike) -> int:
    """Validate a Chrome-trace JSON object (or file); return event count.

    Checks the subset of the format the tracer emits — enough for CI to
    guarantee the artifact loads in Perfetto: a ``traceEvents`` list
    whose entries carry a string ``name``, a known ``ph``, integer
    ``pid``/``tid``, a non-negative numeric ``ts`` (and ``dur`` for
    ``"X"`` spans), and a known category on non-metadata events.
    Raises :class:`ReproError` on the first violation.
    """
    if not isinstance(trace, dict):
        with open(trace) as handle:
            try:
                trace = json.load(handle)
            except ValueError as exc:
                raise ReproError(f"trace file is not valid JSON: {exc}") from exc
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise ReproError("Chrome trace must be an object with 'traceEvents'")
    events = trace["traceEvents"]
    if not isinstance(events, list):
        raise ReproError("'traceEvents' must be a list")
    for index, event in enumerate(events):
        context = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ReproError(f"{context}: not an object")
        name = event.get("name")
        if not isinstance(name, str) or not name:
            raise ReproError(f"{context}: missing or non-string 'name'")
        phase = event.get("ph")
        if phase not in _PHASES:
            raise ReproError(f"{context}: unknown phase {phase!r}")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ReproError(f"{context}: missing integer {key!r}")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ReproError(f"{context}: 'ts' must be a non-negative number")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ReproError(
                    f"{context}: 'X' span needs a non-negative 'dur'"
                )
        if phase != "M":
            category = event.get("cat")
            if category not in CATEGORIES:
                raise ReproError(f"{context}: unknown category {category!r}")
        if phase == "C" and not isinstance(event.get("args"), dict):
            raise ReproError(f"{context}: counter event needs dict 'args'")
    return len(events)
