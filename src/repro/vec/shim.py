"""Observability stand-ins for machines the fast paths never build.

Fast-path drivers compute results with batched kernels instead of
running a :class:`~repro.sim.System`, but they still have to emit
metrics snapshots when an observability session is active and to hand
the equivalence battery the same per-component stat dicts the event
drivers capture. This module holds the two shared pieces:

- :func:`machine_shim` — a duck-typed component tree shaped exactly
  like the machine :meth:`repro.obs.session.ObsSession.attach` walks
  (cores, hierarchy with L1s/L2/DBI, controller, engine), populated
  from plain ``{stat: count}`` dicts.
- :func:`component_snapshot` — the event-side mirror: capture the five
  per-component stat dicts (controller, l1, l2, hierarchy, dbi) from a
  real single-core system, in the exact shape
  :meth:`repro.vec.hier.DirtyReplay.component_stats` produces, so
  :mod:`repro.check.fastpath` can diff them key by key.

Capture ordering matters: ``component_snapshot`` must run after
``system.run()`` but *before* any verification that reads memory back
(``read_rows`` / ``mem_read`` drain dirty lines, which mutates DBI and
controller counters).
"""

from __future__ import annotations

from repro.sim.config import SystemConfig
from repro.utils.statistics import Histogram, StatGroup


class AttrBag:
    """A bag of attributes (duck-typed component stand-in)."""

    def __init__(self, **attrs) -> None:
        self.__dict__.update(attrs)


def stat_group(name: str, counts: dict | None) -> StatGroup:
    """A :class:`StatGroup` holding the non-zero entries of ``counts``."""
    stats = StatGroup(name)
    for key, value in (counts or {}).items():
        if value:
            stats.add(key, value)
    return stats


def machine_shim(
    config: SystemConfig,
    *,
    core_counts: dict,
    l1_counts: dict | None = None,
    l2_counts: dict | None = None,
    hierarchy_counts: dict | None = None,
    dbi_counts: dict | None = None,
    controller_counts: dict | None = None,
) -> AttrBag:
    """A registry-attachable stand-in for the machine a fast run skips.

    Exposes the component shape ``ObsSession.attach`` walks with the
    counts the fast path derived, under the same stat names the real
    components use, so fast and event snapshots stay comparable.
    """
    hierarchy = AttrBag(
        l1s=[AttrBag(stats=stat_group("l1.core0", l1_counts))],
        l2=AttrBag(stats=stat_group("l2", l2_counts)),
        stats=stat_group("hierarchy", hierarchy_counts),
        dbi=AttrBag(stats=stat_group("dbi", dbi_counts)),
        prefetcher=None,
        tracer=None,
    )
    return AttrBag(
        cores=[AttrBag(core_id=0, stats=stat_group("core0", core_counts),
                       finish_time=0)],
        hierarchy=hierarchy,
        controller=AttrBag(
            stats=stat_group("memory_controller", controller_counts),
            queue_delay=Histogram(bucket_width=50),
            tracer=None,
        ),
        engine=AttrBag(tracer=None, events_processed=0),
        config=config,
    )


def component_snapshot(system) -> dict | None:
    """Per-component stat dicts of a single-core, single-channel system.

    Returns ``None`` for machines the equivalence battery does not
    cover (multiple cores or channels), so callers can store the
    snapshot unconditionally.
    """
    hierarchy = system.hierarchy
    controller = system.controller
    if len(hierarchy.l1s) != 1 or not hasattr(controller, "stats"):
        return None
    return {
        "controller": dict(controller.stats.as_dict()),
        "l1": dict(hierarchy.l1s[0].stats.as_dict()),
        "l2": dict(hierarchy.l2.stats.as_dict()),
        "hierarchy": dict(hierarchy.stats.as_dict()),
        "dbi": dict(hierarchy.dbi.stats.as_dict()),
    }
