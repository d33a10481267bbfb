"""The machine a fast run fills in place of the one it never builds.

Fast-path drivers compute results with batched kernels instead of
running a :class:`~repro.sim.System`. Each fills one
:func:`machine_shim` with its counts instead: a duck-typed component
tree shaped exactly like the machine (cores, hierarchy with L1s/L2/DBI,
controller, engine, config), whose stat groups carry the counts under
the names the real components use. Everything downstream reads that
one tree, the same way it reads an event machine:

- :func:`repro.sim.results.collect_result` reads the run's
  :class:`~repro.sim.results.RunResult` and energy from it;
- :meth:`repro.obs.session.ObsSession.attach` registers its stat
  groups, so a fast run's registry view and its result are the same
  counters;
- :func:`component_snapshot` captures the five per-component stat
  dicts (controller, l1, l2, hierarchy, dbi) that
  :mod:`repro.check.fastpath` diffs key by key against an event run.

Capture ordering matters: on an event system ``component_snapshot``
must run after ``system.run()`` but *before* any verification that
reads memory back (``read_rows`` / ``mem_read`` drain dirty lines,
which mutates DBI and controller counters).
"""

from __future__ import annotations

from repro.sim.config import SystemConfig
from repro.utils.statistics import Histogram, StatGroup


class AttrBag:
    """A bag of attributes (duck-typed component stand-in)."""

    def __init__(self, **attrs) -> None:
        self.__dict__.update(attrs)


def set_counts(stats: StatGroup, counts: dict | None) -> None:
    """Replace the counters of ``stats`` by the non-zero entries of ``counts``."""
    stats.counters.clear()
    stats.counters.update(
        {key: value for key, value in (counts or {}).items() if value}
    )


def stat_group(name: str, counts: dict | None) -> StatGroup:
    """A :class:`StatGroup` holding the non-zero entries of ``counts``."""
    stats = StatGroup(name)
    set_counts(stats, counts)
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
    """A single-core, untimed stand-in for the machine a fast run skips.

    Exposes the component shape ``collect_result`` and
    ``ObsSession.attach`` walk, with the counts the fast path derived
    under the same stat names the real components use, so fast and
    event results and snapshots stay comparable. The shim marks itself
    ``fast``; its engine clock and finish time stay at zero.
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
        engine=AttrBag(tracer=None, events_processed=0, now=0),
        config=config,
        fast=True,
    )


def component_snapshot(system) -> dict | None:
    """Per-component stat dicts of a single-core, single-channel machine.

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
