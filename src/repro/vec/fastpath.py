"""FastSystem: the event machine's op-stream API over :class:`DirtyReplay`.

The event-driven machine spends most of its wall clock in the discrete
event engine and the controller's bank phase machines. For a class of
workloads none of that affects *functional* results: with one blocking
in-order core, no prefetcher, no store buffer, a single channel, and an
open-row policy (:func:`repro.vec.hier.assert_fast_compatible`), the
sequence of cache lookups/fills/evictions and the per-bank DRAM service
order are both fully determined by program order.

:class:`FastSystem` keeps :class:`repro.sim.System`'s allocation,
memory and run API for op-stream workloads (infer, the pim ``gs`` side,
trace ingest, DB layouts without a vectorized engine) and splits each
run in two:

- **values** — every load reads its line straight from the functional
  DRAM module at its pattern and slices it; every store is a
  read-modify-write of its line. The caches are coherent across
  patterns (Section 4.1), so a load sees exactly what the event
  machine's caches return, and memory is always current.
- **statistics** — the run's translated ``(line, pattern, alt, write)``
  stream replays once through :class:`repro.vec.hier.DirtyReplay`,
  which publishes the cache, DBI and controller counters into its
  :func:`repro.vec.shim.machine_shim` after every run and memory
  readback. Timing outputs (cycles, queue delays) are zero.

The :class:`RunResult` is :func:`repro.sim.results.collect_result` of
that shim, and observability sessions register the same shim, so a
fast run's result and its registry view are the same counters.
Equivalence is verified, not assumed:
:mod:`repro.check.fastpath` diffs fast and event runs of random traces
end to end.
"""

from __future__ import annotations

from typing import Iterable

from repro.cpu.isa import Compute, Store
from repro.errors import CoherenceError, SimulationError
from repro.mem.mapping import StaticPatternPolicy
from repro.obs.session import current_session
from repro.sim.config import SystemConfig
from repro.sim.results import RunResult, collect_result
from repro.sim.system import read_memory, write_memory
from repro.vec.hier import DirtyReplay


class FastSystem:
    """Drop-in for :class:`repro.sim.System` on fast-compatible configs.

    Same allocation/memory/run API; every run completes during
    ``run()`` itself with all timing outputs zero. ``cores``,
    ``hierarchy`` and ``controller`` are the stat-only components of
    the replay's :attr:`~repro.vec.hier.DirtyReplay.machine`, so
    :func:`~repro.sim.results.collect_result`, observability sessions
    and :func:`~repro.vec.shim.component_snapshot` read a fast system
    exactly like an event one.
    """

    def __init__(self, config: SystemConfig, mapping_policy=None) -> None:
        from repro.sim.system import _build_module

        self.replay = DirtyReplay(config)
        self.config = config
        self.module = _build_module(config)
        policy_cls = mapping_policy or StaticPatternPolicy
        self.mapping_policy = policy_cls(self.module)
        self.page_table = self.mapping_policy.page_table
        self.allocator = self.mapping_policy.allocator
        machine = self.replay.machine
        self.cores = machine.cores
        self.hierarchy = machine.hierarchy
        self.controller = machine.controller
        session = current_session()
        if session is not None:
            session.attach(machine)

    # ------------------------------------------------------------------
    # Allocation and functional memory access (same as System)
    # ------------------------------------------------------------------
    def pattmalloc(self, size: int, shuffle: bool = False, pattern: int = 0) -> int:
        return self.allocator.pattmalloc(size, shuffle=shuffle, pattern=pattern)

    def malloc(self, size: int) -> int:
        return self.allocator.malloc(size)

    def mem_write(self, address: int, data: bytes) -> None:
        write_memory(self.module, self.page_table, address, data)

    def mem_read(self, address: int, length: int) -> bytes:
        self.replay.drain_dirty()
        self.replay.publish()
        return read_memory(self.module, self.page_table, address, length)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        programs: list[Iterable],
        stop_on_core: int | None = None,
        max_events: int | None = None,
    ) -> RunResult:
        if len(programs) > len(self.cores):
            raise SimulationError(
                f"{len(programs)} programs for {len(self.cores)} cores", cycle=0
            )
        for program in programs:
            self._execute(program)
        self.replay.publish()
        return collect_result(self.replay.machine)

    def _execute(self, ops: Iterable) -> None:
        """Run one op stream: values now, statistics in one replay."""
        counters = self.cores[0].stats.counters
        module = self.module
        patterns_supported = module.supports_patterns
        line_bytes = module.line_bytes
        translate = self.page_table.translate
        lines: list[int] = []
        patterns: list[int] = []
        alts: list[int] = []
        writes: list[bool] = []
        for op in ops:
            if isinstance(op, Compute):
                counters["instructions"] += op.count
                continue
            is_write = isinstance(op, Store)
            counters["instructions"] += 1
            counters["stores" if is_write else "loads"] += 1
            paddr, shuffled, alt_pattern = translate(op.address)
            pattern = op.pattern
            line = paddr & -line_bytes
            offset = paddr - line
            end = offset + op.size
            if end > line_bytes:
                raise CoherenceError(
                    f"access of {op.size} bytes crosses a line boundary",
                    address=paddr, pattern=pattern,
                )
            if pattern and not patterns_supported:
                raise SimulationError(
                    "patterned request sent to a non-GS module",
                    address=paddr, pattern=pattern,
                )
            data = module.read_line(line, pattern, shuffled)
            if is_write:
                data = bytearray(data)
                data[offset:end] = op.payload
                module.write_line(line, bytes(data), pattern, shuffled)
            elif op.on_value is not None:
                op.on_value(data[offset:end])
            lines.append(line)
            patterns.append(pattern)
            alts.append(alt_pattern)
            writes.append(is_write)
        self.replay.run(lines, patterns, alts, writes)
        counters["finished"] += 1
