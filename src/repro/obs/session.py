"""Observability sessions: wire a registry + tracer into built systems.

A session is the glue between drivers that know nothing about
observability and components that expose it. While a session is
active (``with observe(...) as session:``), every :class:`System`
constructed registers its components into the session's
:class:`MetricsRegistry` under stable dotted paths and — when tracing
is requested — gets the session's :class:`Tracer` installed into its
engine, cache hierarchy, and memory controller(s), and the session's
DRAM command log handed to its controller(s). A
:class:`~repro.pim.executor.PIMExecutor` built in the session appends
to the same log. The experiment drivers (``run_transactions`` et al.)
need no new parameters.

:class:`ObsRun` is the picklable envelope a worker returns for an
observed run: the driver's own record plus the metrics snapshot and
(optionally) the trace events and command log, so observed results
survive both the process pool and the on-disk result cache.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.dram.commands import Command
from repro.obs.registry import MetricsRegistry, MetricsSnapshot
from repro.obs.tracer import Tracer, command_events

_CURRENT: "ObsSession | None" = None


def current_session() -> "ObsSession | None":
    """The active session, or None (the common, zero-cost case)."""
    return _CURRENT


class ObsSession:
    """One observation window: a registry, an optional tracer and
    command log, systems."""

    def __init__(
        self,
        trace: bool = False,
        max_trace_events: int = 1_000_000,
        detail: bool = False,
    ) -> None:
        self.registry = MetricsRegistry()
        self.tracer: Tracer | None = (
            Tracer(max_events=max_trace_events, detail=detail) if trace else None
        )
        #: ``(issue cycle, Command)`` of every DRAM command the session's
        #: controllers and PIM executors issue; ``None`` unless tracing.
        self.command_log: list[tuple[int, Command]] | None = (
            [] if trace else None
        )
        self._systems = 0

    # ------------------------------------------------------------------
    def attach(self, system: Any) -> str:
        """Register one built system's components; returns its prefix.

        The first system gets bare paths (``mem.controller``); further
        systems in the same session are namespaced ``sys1.``, ``sys2.``
        ... so multi-run experiments keep every run's counters apart.
        """
        index = self._systems
        self._systems += 1
        prefix = "" if index == 0 else f"sys{index}."
        registry = self.registry

        for core in system.cores:
            registry.register(f"{prefix}cpu.core{core.core_id}", core.stats)
        hierarchy = system.hierarchy
        for core_id, l1 in enumerate(hierarchy.l1s):
            registry.register(f"{prefix}cache.l1.core{core_id}", l1.stats)
        registry.register(f"{prefix}cache.l2", hierarchy.l2.stats)
        registry.register(f"{prefix}cache.hierarchy", hierarchy.stats)
        registry.register(f"{prefix}cache.dbi", hierarchy.dbi.stats)
        if hierarchy.prefetcher is not None:
            registry.register(
                f"{prefix}cache.prefetcher", hierarchy.prefetcher.stats
            )

        controller = system.controller
        channel_controllers = getattr(controller, "controllers", None)
        if channel_controllers:
            for channel, channel_controller in enumerate(channel_controllers):
                base = f"{prefix}mem.channel{channel}.controller"
                registry.register(base, channel_controller.stats)
                registry.register(
                    f"{base}.queue_delay", channel_controller.queue_delay
                )
        else:
            registry.register(f"{prefix}mem.controller", controller.stats)
            registry.register(
                f"{prefix}mem.controller.queue_delay", controller.queue_delay
            )

        if self.tracer is not None:
            system.engine.tracer = self.tracer
            hierarchy.tracer = self.tracer
            if channel_controllers:
                for channel_controller in channel_controllers:
                    channel_controller.tracer = self.tracer
            else:
                controller.tracer = self.tracer
            controller.command_log = self.command_log
        return prefix

    def snapshot(self) -> MetricsSnapshot:
        return self.registry.snapshot()

    def trace_events(self) -> tuple[list[dict], int]:
        """The tracer's events plus the command log as ``dram-command``
        instants, capped at the tracer's ``max_events``.

        Returns ``(events, dropped)``; ``dropped`` counts both the
        tracer's own overflow and the command instants cut by the cap.
        """
        tracer = self.tracer
        log = self.command_log
        room = max(tracer.max_events - len(tracer.events), 0)
        events = tracer.events + command_events(log[:room])
        return events, tracer.dropped + max(len(log) - room, 0)


@contextmanager
def observe(
    trace: bool = False,
    max_trace_events: int = 1_000_000,
    detail: bool = False,
) -> Iterator[ObsSession]:
    """Activate an observability session for the ``with`` body.

    Sessions do not nest: re-entering replaces the active session for
    the inner block and restores the outer one on exit, so each block's
    systems land in exactly one registry.
    """
    global _CURRENT
    previous = _CURRENT
    session = ObsSession(
        trace=trace, max_trace_events=max_trace_events, detail=detail
    )
    _CURRENT = session
    try:
        yield session
    finally:
        _CURRENT = previous


@dataclass
class ObsRun:
    """An observed run record: driver result + metrics (+ trace).

    Forwards ``result`` and ``verified`` so harness code that duck-types
    run records (``record.result.cycles``, ``record.verified``) works
    unchanged on observed runs.
    """

    record: Any
    metrics: MetricsSnapshot
    trace_events: list[dict] | None = None
    dropped_events: int = 0
    command_log: list[tuple[int, Command]] | None = None
    label: str = ""
    extra: dict = field(default_factory=dict)

    @property
    def result(self) -> Any:
        return getattr(self.record, "result", None)

    @property
    def verified(self) -> bool:
        return bool(getattr(self.record, "verified", True))
