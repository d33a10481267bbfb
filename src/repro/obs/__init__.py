"""Unified observability: metrics registry + structured event tracer.

Three parts, all optional and all zero-cost when unused:

- :mod:`repro.obs.registry` — a :class:`MetricsRegistry` mapping
  component paths (``mem.controller``, ``cache.l1.core0``) to the
  components' live :class:`StatGroup`/:class:`Histogram` objects, with
  snapshot / diff / merge and JSON export;
- :mod:`repro.obs.tracer` — a structured span/instant/counter tracer
  (categories: core, cache, mshr, controller, engine) exporting Chrome
  trace format for Perfetto;
- the DRAM command log — a tracing session's ``(cycle, Command)`` list
  that every controller and PIM executor appends to. The export renders
  it as ``dram-command`` instants (:func:`command_events`), and
  :mod:`repro.mem.profile` reads it directly for bandwidth and
  row-locality profiles.

Activate with ``observe()``; any :class:`~repro.sim.system.System`
built inside the block self-registers. ``RunSpec.obs`` plumbs the same
switch through the process pool and result cache. See
``docs/OBSERVABILITY.md``.
"""

from repro.obs.registry import MetricsRegistry, MetricsSnapshot, default_registry
from repro.obs.session import ObsRun, ObsSession, current_session, observe
from repro.obs.tracer import (
    CATEGORIES,
    Tracer,
    chrome_trace,
    command_events,
    validate_chrome_trace,
)

__all__ = [
    "CATEGORIES",
    "MetricsRegistry",
    "MetricsSnapshot",
    "ObsRun",
    "ObsSession",
    "Tracer",
    "chrome_trace",
    "command_events",
    "current_session",
    "default_registry",
    "observe",
    "validate_chrome_trace",
]
