"""Run results: the uniform record every experiment produces."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.energy.model import EnergyBreakdown, system_energy


@dataclass
class RunResult:
    """Timing, traffic, and energy for one simulated run."""

    mechanism: str
    cycles: int
    instructions: int
    loads: int
    stores: int
    l1_hits: int
    l1_misses: int
    l2_hits: int
    l2_misses: int
    dram_reads: int
    dram_writes: int
    row_hits: int
    row_misses: int
    prefetches: int
    coherence_invalidations: int
    writebacks: int
    energy: EnergyBreakdown
    extra: dict[str, float] = field(default_factory=dict)
    #: Host wall-time attribution (setup / generate / run / verify
    #: seconds) recorded by the experiment drivers. Deliberately NOT
    #: part of :meth:`to_dict` (fast-mode goldens compare dicts
    #: exactly), excluded from equality (two seeded runs are the same
    #: result even though their wall times differ), and scrubbed from
    #: serve digests (see ``repro.serve.protocol``).
    stages: dict[str, float] = field(default_factory=dict, compare=False)

    @property
    def l1_hit_rate(self) -> float:
        total = self.l1_hits + self.l1_misses
        return self.l1_hits / total if total else 0.0

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0

    @property
    def memory_accesses(self) -> int:
        """Cache lines transferred on the memory channel."""
        return self.dram_reads + self.dram_writes

    @property
    def bandwidth_bytes(self) -> int:
        """Off-chip traffic in bytes (64 B per transfer)."""
        return self.memory_accesses * 64

    def to_dict(self) -> dict:
        """JSON-ready flat summary of this run."""
        return {
            "mechanism": self.mechanism,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "loads": self.loads,
            "stores": self.stores,
            "l1_hit_rate": self.l1_hit_rate,
            "l2_hits": self.l2_hits,
            "l2_misses": self.l2_misses,
            "dram_reads": self.dram_reads,
            "dram_writes": self.dram_writes,
            "row_hit_rate": self.row_hit_rate,
            "prefetches": self.prefetches,
            "coherence_invalidations": self.coherence_invalidations,
            "writebacks": self.writebacks,
            "energy_mj": self.energy.total_mj,
            "extra": dict(self.extra),
        }

    def render(self) -> str:
        return (
            f"[{self.mechanism}] cycles={self.cycles:,} "
            f"instr={self.instructions:,} "
            f"L1 {self.l1_hit_rate:.1%} hit, "
            f"mem accesses={self.memory_accesses:,} "
            f"(row-hit {self.row_hit_rate:.1%}), "
            f"energy={self.energy.total_mj:.3f} mJ"
        )


def collect_result(machine) -> RunResult:
    """A finished run's :class:`RunResult` and energy, from its stat groups.

    ``machine`` is any component tree shaped like
    :class:`repro.sim.System` (``cores``, ``hierarchy``, ``controller``,
    ``engine``, ``config``): the event machine itself, or the
    :func:`repro.vec.shim.machine_shim` a fast run fills. A shim marks
    itself ``fast``, which the result records as ``extra["fast_path"]``.
    """
    engine = machine.engine
    cores = machine.cores
    hierarchy = machine.hierarchy
    controller = machine.controller
    config = machine.config
    cycles = max(
        [core.finish_time or engine.now for core in cores], default=engine.now
    )

    def core_total(name: str) -> int:
        return sum(core.stats.get(name) for core in cores)

    instructions = core_total("instructions")
    l1_hits = sum(l1.stats.get("hits") for l1 in hierarchy.l1s)
    l1_misses = sum(l1.stats.get("misses") for l1 in hierarchy.l1s)
    l2 = hierarchy.l2.stats
    mc = controller.stats
    energy = system_energy(
        runtime_cycles=cycles,
        instructions=instructions,
        l1_accesses=l1_hits + l1_misses,
        l2_accesses=l2.get("hits") + l2.get("misses"),
        command_counts=mc.as_dict(),
        cores=config.cores,
        cpu_ghz=config.cpu_ghz,
    )
    extra = {
        "engine_events": float(engine.events_processed),
        "mean_memory_queue_delay": controller.queue_delay.mean,
        "auto_gathers": float(core_total("auto_gathers")),
        "stores_overlapped": float(core_total("stores_overlapped")),
        "mshr_merges": float(hierarchy.stats.get("mshr_merges")),
        "snoop_flushes": float(hierarchy.stats.get("snoop_flushes")),
    }
    if getattr(machine, "fast", False):
        extra["fast_path"] = 1.0
    return RunResult(
        mechanism=config.mechanism.value,
        cycles=cycles,
        instructions=instructions,
        loads=core_total("loads"),
        stores=core_total("stores"),
        l1_hits=l1_hits,
        l1_misses=l1_misses,
        l2_hits=l2.get("hits"),
        l2_misses=l2.get("misses"),
        dram_reads=mc.get("cmd_RD"),
        dram_writes=mc.get("cmd_WR"),
        row_hits=mc.get("row_hits"),
        row_misses=mc.get("row_misses"),
        prefetches=hierarchy.stats.get("prefetches_issued"),
        coherence_invalidations=hierarchy.stats.get("coherence_invalidations"),
        writebacks=hierarchy.stats.get("writebacks"),
        energy=energy,
        extra=extra,
    )


#: Canonical stage names, in pipeline order.
STAGE_NAMES = ("setup", "generate", "run", "verify")


class StageTimer:
    """Wall-time attribution for one driver invocation.

    Drivers wrap each pipeline section in :meth:`stage` and call
    :meth:`attach` on the finished :class:`RunResult`; the bench
    surfaces the totals as the payload's ``stages`` block. Repeated
    sections (a verify split around a run, say) accumulate.
    """

    def __init__(self) -> None:
        self.stages: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.stages[name] = self.stages.get(name, 0.0) + elapsed

    def attach(self, result: RunResult) -> RunResult:
        for name, seconds in self.stages.items():
            result.stages[name] = result.stages.get(name, 0.0) + seconds
        return result
