"""FastSystem: the real cache hierarchy over a timing-free controller.

The event-driven machine spends most of its wall clock in the discrete
event engine and the controller's bank phase machines. For a class of
workloads none of that affects *functional* results: with one blocking
in-order core, no prefetcher, no store buffer, a single channel, and an
open-row policy, the sequence of cache lookups/fills/evictions and the
per-bank DRAM service order are both fully determined by program order.

:class:`FastSystem` exploits that: it builds the *same*
:class:`~repro.cache.hierarchy.CacheHierarchy`, DBI, page table, and
DRAM module as :class:`repro.sim.System`, but replaces the engine with
a frozen clock and the memory controller with
:class:`ImmediateController`, which services every request
synchronously at submit time with an open-row replay per bank. Because
the identical cache code runs in the identical call order, hit/miss
totals, eviction victims, coherence actions, gathered data, and
row-locality counts are bit-identical to the event model by
construction — timing outputs (cycles, queue delays) are simply zero.

Equivalence is additionally *verified*, not assumed:
:mod:`repro.check.fastpath` diffs fast and event runs end to end.
"""

from __future__ import annotations

from typing import Iterable

from repro.cache.hierarchy import CacheHierarchy
from repro.cpu.isa import Compute, Load, Store
from repro.dram.commands import Command, CommandKind
from repro.energy.model import system_energy
from repro.errors import ConfigError, SimulationError
from repro.mem.controller import MemoryController
from repro.mem.mapping import StaticPatternPolicy
from repro.mem.request import MemoryRequest, Phase
from repro.obs.session import current_session
from repro.sim.config import Mechanism, SystemConfig
from repro.sim.results import RunResult
from repro.sim.system import read_memory, write_memory
from repro.utils.statistics import StatGroup


def assert_fast_compatible(config: SystemConfig) -> None:
    """Raise ConfigError unless the fast path is exact for ``config``.

    The conditions are exactly those under which the functional
    behaviour of the event machine is timing-independent (see module
    docstring); anything else must run on :class:`repro.sim.System`.
    """
    problems = []
    if config.cores != 1:
        problems.append(f"cores={config.cores} (needs 1 blocking core)")
    if config.channels != 1:
        problems.append(f"channels={config.channels} (needs 1)")
    if config.prefetch:
        problems.append("prefetch=True (prefetch timing changes fills)")
    if config.store_buffer:
        problems.append(
            f"store_buffer={config.store_buffer} (stores must block)"
        )
    if config.refresh:
        problems.append("refresh=True (refresh closes rows by time)")
    if not config.open_row_policy:
        problems.append("closed-page policy (row state depends on queues)")
    if config.auto_pattern:
        problems.append("auto_pattern=True (detector state is timing-free "
                        "but unvalidated on the fast path)")
    if config.mechanism is Mechanism.IMPULSE:
        problems.append("Impulse mechanism (controller-side gather expands "
                        "requests)")
    if problems:
        raise ConfigError(
            "configuration is not fast-path compatible: " + "; ".join(problems)
        )


def fast_supported(config: SystemConfig) -> bool:
    """True when ``config`` can run on the fast path."""
    try:
        assert_fast_compatible(config)
    except ConfigError:
        return False
    return True


class _FastEngine:
    """A frozen clock: the fast path never schedules events."""

    def __init__(self) -> None:
        self.now = 0
        self.events_processed = 0
        self.tracer = None

    def schedule_at(self, time, callback, *args) -> None:
        raise SimulationError(
            "fast path cannot schedule events", cycle=self.now
        )

    def schedule(self, delay, callback, *args) -> None:
        raise SimulationError(
            "fast path cannot schedule events", cycle=self.now
        )

    def pending(self) -> int:
        return 0


class ImmediateController(MemoryController):
    """Synchronous controller: submit == service == complete.

    Replays each bank's open-row state in submission order — which, for
    fast-compatible configurations, *is* the event controller's service
    order — and invokes the request callback before ``submit`` returns.
    Statistics use the same names and accounting points as the timed
    controller, so registry snapshots stay comparable.
    """

    def __init__(self, engine, module, shuffle_latency: int = 3) -> None:
        super().__init__(engine, module, shuffle_latency=shuffle_latency)
        self._open_rows: list[int | None] = [None] * module.geometry.banks

    def submit(self, request: MemoryRequest) -> None:
        request.arrival_time = 0
        location = request.location
        if location is None:
            location = request.location = self.locate(request.address)
        counters = self.stats.counters
        counters["requests"] += 1
        counters[request.kind.stat] += 1
        if request.pattern:
            counters["requests_patterned"] += 1

        bank, row, column, _offset = location
        open_row = self._open_rows[bank]
        if open_row == row:
            request.row_hit = True
        else:
            request.row_hit = False
            if open_row is not None:
                self._record_command(Command(CommandKind.PRECHARGE, bank=bank))
            self._record_command(
                Command(CommandKind.ACTIVATE, bank=bank, row=row)
            )
            self._open_rows[bank] = row
        kind = CommandKind.WRITE if request.kind.is_write else CommandKind.READ
        self._record_command(Command(kind, bank, row, column, request.pattern))
        counters["row_hits" if request.row_hit else "row_misses"] += 1
        if not request.no_data:
            self._move_data(request)
        request.issue_time = 0
        request.finish_time = 0
        request.phase = Phase.DONE
        if self.tracer is not None:
            self.tracer.complete(
                "controller",
                "write" if request.is_write else "read",
                0, 0, tid=bank,
                args={"row": row, "column": request.location.column,
                      "pattern": request.pattern,
                      "row_hit": request.row_hit},
            )
        if request.callback is not None:
            request.callback(request)

    def pending_requests(self) -> int:
        return 0


class _FastCore:
    """Statistics shell standing in for :class:`repro.cpu.core.Core`."""

    def __init__(self, core_id: int) -> None:
        self.core_id = core_id
        self.stats = StatGroup(f"core{core_id}")
        self.finish_time = 0


class FastSystem:
    """Drop-in for :class:`repro.sim.System` on fast-compatible configs.

    Same allocation/memory/run/collect API; every run completes during
    ``run()`` itself with all timing outputs zero. Observability
    sessions attach exactly as for the event machine, so fast runs
    still emit registry snapshots.
    """

    def __init__(self, config: SystemConfig, mapping_policy=None) -> None:
        from repro.sim.system import _build_module

        assert_fast_compatible(config)
        self.config = config
        self.engine = _FastEngine()
        self.module = _build_module(config)
        self.controller = ImmediateController(
            self.engine, self.module, shuffle_latency=config.shuffle_latency
        )
        self.hierarchy = CacheHierarchy(
            self.engine,
            self.controller,
            num_cores=config.cores,
            l1_size=config.l1_size,
            l1_assoc=config.l1_assoc,
            l1_latency=config.l1_latency,
            l2_size=config.l2_size,
            l2_assoc=config.l2_assoc,
            l2_latency=config.l2_latency,
            prefetcher=None,
        )
        policy_cls = mapping_policy or StaticPatternPolicy
        self.mapping_policy = policy_cls(self.module)
        self.page_table = self.mapping_policy.page_table
        self.allocator = self.mapping_policy.allocator
        self.cores = [_FastCore(0)]
        session = current_session()
        if session is not None:
            session.attach(self)

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
        self.hierarchy.drain_dirty()
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
        return self.collect_result()

    def _execute(self, ops: Iterable) -> None:
        """Run one op stream with Core-identical stat accounting."""
        core = self.cores[0]
        stats = core.stats
        hierarchy = self.hierarchy
        translate = self.page_table.translate
        filled: list[bytes] = []
        for op in ops:
            if isinstance(op, Compute):
                stats.add("instructions", op.count)
                continue
            is_write = isinstance(op, Store)
            stats.add("instructions")
            stats.add("stores" if is_write else "loads")
            paddr, shuffled, alt_pattern = translate(op.address)
            result = hierarchy.access(
                core.core_id,
                paddr,
                size=op.size,
                is_write=is_write,
                payload=op.payload if is_write else None,
                pattern=op.pattern,
                shuffled=shuffled,
                alt_pattern=alt_pattern,
                pc=op.pc,
                callback=filled.append,
            )
            if result is not None:
                _latency, data = result
            else:
                stats.add("misses_blocked")
                if not filled:
                    raise SimulationError(
                        "fast-path fill did not complete synchronously",
                        address=paddr, pattern=op.pattern,
                    )
                data = filled.pop()
            if not is_write and op.on_value is not None:
                op.on_value(data)
        stats.add("finished")

    def collect_result(self) -> RunResult:
        instructions = sum(c.stats.get("instructions") for c in self.cores)
        loads = sum(c.stats.get("loads") for c in self.cores)
        stores = sum(c.stats.get("stores") for c in self.cores)
        l1_hits = sum(l1.stats.get("hits") for l1 in self.hierarchy.l1s)
        l1_misses = sum(l1.stats.get("misses") for l1 in self.hierarchy.l1s)
        mc = self.controller.stats
        energy = system_energy(
            runtime_cycles=0,
            instructions=instructions,
            l1_accesses=l1_hits + l1_misses,
            l2_accesses=self.hierarchy.l2.stats.get("hits")
            + self.hierarchy.l2.stats.get("misses"),
            command_counts=mc.as_dict(),
            cores=self.config.cores,
            cpu_ghz=self.config.cpu_ghz,
        )
        extra = {
            "engine_events": 0.0,
            "mean_memory_queue_delay": 0.0,
            "auto_gathers": 0.0,
            "stores_overlapped": 0.0,
            "mshr_merges": float(self.hierarchy.stats.get("mshr_merges")),
            "snoop_flushes": float(self.hierarchy.stats.get("snoop_flushes")),
            "fast_path": 1.0,
        }
        return RunResult(
            mechanism=self.config.mechanism.value,
            cycles=0,
            instructions=instructions,
            loads=loads,
            stores=stores,
            l1_hits=l1_hits,
            l1_misses=l1_misses,
            l2_hits=self.hierarchy.l2.stats.get("hits"),
            l2_misses=self.hierarchy.l2.stats.get("misses"),
            dram_reads=mc.get("cmd_RD"),
            dram_writes=mc.get("cmd_WR"),
            row_hits=mc.get("row_hits"),
            row_misses=mc.get("row_misses"),
            prefetches=self.hierarchy.stats.get("prefetches_issued"),
            coherence_invalidations=self.hierarchy.stats.get(
                "coherence_invalidations"
            ),
            writebacks=self.hierarchy.stats.get("writebacks"),
            energy=energy,
            extra=extra,
        )
