"""In-order core timing model.

The paper simulates 1-2 in-order x86 cores at 4 GHz (Table 1). This
model executes an instruction stream with CPI 1 for compute and
blocking loads/stores through the cache hierarchy.

Compute bursts are *block-compressed*: the core accumulates cycles
locally and touches the event engine only at memory operations (or
after ``sync_interval`` accumulated cycles, which bounds the clock skew
visible to other cores in multi-core runs). Cache hits are resolved
synchronously by the hierarchy's fast path, so simulation events scale
with cache *misses*, not instructions — this is what makes paper-shaped
workloads feasible in pure Python.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.cache.hierarchy import CacheHierarchy
from repro.cpu.autopattern import AutoPatternUnit
from repro.cpu.isa import Compute, Load, Store
from repro.errors import SimulationError
from repro.utils.events import Engine
from repro.utils.statistics import StatGroup

#: translate(vaddr) -> (paddr, shuffled, alt_pattern)
TranslateFn = Callable[[int], tuple[int, bool, int]]


def _identity_translate(address: int) -> tuple[int, bool, int]:
    return (address, False, 0)


class Core:
    """One in-order core executing an op stream against the hierarchy."""

    def __init__(
        self,
        engine: Engine,
        core_id: int,
        hierarchy: CacheHierarchy,
        translate: TranslateFn | None = None,
        sync_interval: int = 400,
        auto_pattern: AutoPatternUnit | None = None,
        store_buffer: int = 0,
    ) -> None:
        self.engine = engine
        self.core_id = core_id
        self.hierarchy = hierarchy
        self.translate = translate or _identity_translate
        self.sync_interval = sync_interval
        self.auto_pattern = auto_pattern
        #: Store-buffer depth: 0 = blocking stores (the default model);
        #: N > 0 lets execution continue past up to N store misses
        #: (loads still block, preserving the in-order load model).
        self.store_buffer = store_buffer
        self._outstanding_stores = 0
        #: Outstanding buffered stores split by access pattern: a
        #: younger access must not bypass an older buffered store of the
        #: *other* pattern class (their footprints can overlap via the
        #: gather/scatter constituents, Section 4.1), so cross-pattern
        #: accesses drain the buffer first.
        self._outstanding_plain = 0
        self._outstanding_patterned = 0
        self._stalled_store: Store | None = None
        self._draining = False
        self.stats = StatGroup(f"core{core_id}")
        self.finish_time: int | None = None
        self._ops: Iterator | None = None
        self._accum = 0
        self._pending_op: Load | Store | None = None
        self._on_done: Callable[["Core"], None] | None = None
        self._cancelled = False

    @property
    def running(self) -> bool:
        return self._ops is not None

    def run(
        self,
        ops: Iterable,
        on_done: Callable[["Core"], None] | None = None,
    ) -> None:
        """Begin executing ``ops``; drive with ``engine.run()``."""
        if self.running:
            raise SimulationError(
                "core is already running a program",
                core=self.core_id,
                cycle=self.engine.now,
            )
        self._ops = iter(ops)
        self._on_done = on_done
        self._accum = 0
        self._cancelled = False
        self.finish_time = None
        self.engine.schedule(0, self._execute)

    def cancel(self) -> None:
        """Stop after the current instruction (HTAP's open-ended thread)."""
        self._cancelled = True

    # ------------------------------------------------------------------
    def _execute(self) -> None:
        """Consume ops until blocked on a miss or out of ops."""
        if self._ops is None:
            return  # already finished (stale wake-up)
        ops = self._ops
        counters = self.stats.counters
        while True:
            if self._cancelled:
                self._finish()
                return
            # Periodically realize accumulated cycles as engine time so
            # other cores and the controller see a bounded clock skew.
            if self._accum >= self.sync_interval:
                accum, self._accum = self._accum, 0
                self.engine.schedule(accum, self._execute)
                return
            op = next(ops, None)
            if op is None:
                if self._outstanding_stores > 0:
                    # Drain the store buffer before retiring.
                    self._draining = True
                    return
                self._finish()
                return
            if isinstance(op, Compute):
                self._accum += op.count
                counters["instructions"] += op.count
                continue
            if not self._issue_memory(op):
                return  # blocked on a miss; resumes in _memory_done

    def _buffer_hazard(self, pattern: int) -> bool:
        """Would this access bypass an overlapping buffered store?

        Pattern-0 lines and patterned (gathered) lines of the same rows
        share bytes, so ordering between the two pattern classes must be
        preserved; within a class, distinct line keys are disjoint (and
        same-key accesses are ordered by MSHR merging).
        """
        if self._outstanding_stores == 0:
            return False
        if pattern:
            return self._outstanding_plain > 0
        return self._outstanding_patterned > 0

    def _issue_memory(self, op) -> bool:
        """Issue a Load/Store. True if execution continues immediately."""
        is_write = isinstance(op, Store)
        if self._outstanding_stores and self._buffer_hazard(op.pattern):
            # Drain the store buffer before crossing pattern classes.
            self._stalled_store = op
            self.stats.add("store_buffer_drains")
            return False
        if is_write and self.store_buffer > 0:
            if self._outstanding_stores >= self.store_buffer:
                self._stalled_store = op
                self.stats.add("store_buffer_stalls")
                return False
            return self._issue_buffered_store(op)
        counters = self.stats.counters
        counters["instructions"] += 1
        counters["stores" if is_write else "loads"] += 1
        paddr, shuffled, alt_pattern = self.translate(op.address)
        pattern = op.pattern
        if self.auto_pattern is not None and not is_write:
            # Future-work mechanism (paper Section 4): transparently
            # rewrite detected record-strided loads into gathers.
            conversion = self.auto_pattern.observe(
                op.pc, paddr, pattern, shuffled, alt_pattern, op.size
            )
            if conversion is not None:
                paddr = conversion.address
                pattern = conversion.pattern
                self.stats.add("auto_gathers")
        start_time = self.engine.now + self._accum
        result = self.hierarchy.access(
            self.core_id,
            paddr,
            size=op.size,
            is_write=is_write,
            payload=op.payload if is_write else None,
            pattern=pattern,
            shuffled=shuffled,
            alt_pattern=alt_pattern,
            pc=op.pc,
            start_time=start_time,
            callback=self._memory_done,
        )
        if result is not None:
            latency, data = result
            self._accum += 1 + latency
            if not is_write and op.on_value is not None:
                op.on_value(data)
            return True
        self._pending_op = op
        counters["misses_blocked"] += 1
        return False

    def _issue_buffered_store(self, op: Store) -> bool:
        """Issue a store without blocking; track it in the buffer."""
        self.stats.add("instructions")
        self.stats.add("stores")
        paddr, shuffled, alt_pattern = self.translate(op.address)
        start_time = self.engine.now + self._accum
        result = self.hierarchy.access(
            self.core_id,
            paddr,
            size=op.size,
            is_write=True,
            payload=op.payload,
            pattern=op.pattern,
            shuffled=shuffled,
            alt_pattern=alt_pattern,
            pc=op.pc,
            start_time=start_time,
            callback=lambda data, patterned=bool(op.pattern): self._store_done(
                patterned
            ),
        )
        if result is not None:
            latency, _data = result
            self._accum += 1 + latency
            return True
        self._outstanding_stores += 1
        if op.pattern:
            self._outstanding_patterned += 1
        else:
            self._outstanding_plain += 1
        self.stats.add("stores_overlapped")
        self._accum += 1  # issue cycle only; the miss drains in background
        return True

    def _store_done(self, patterned: bool) -> None:
        """A buffered store's miss completed."""
        self._outstanding_stores -= 1
        if patterned:
            self._outstanding_patterned -= 1
        else:
            self._outstanding_plain -= 1
        if self._stalled_store is not None:
            op, self._stalled_store = self._stalled_store, None
            self._accum = 0
            if self._issue_memory(op):
                self._execute()
            return
        if self._draining and self._outstanding_stores == 0:
            self._draining = False
            self._accum = 0
            self._finish()

    def _memory_done(self, data: bytes) -> None:
        """A blocking miss completed; account stall time and resume."""
        op = self._pending_op
        self._pending_op = None
        if op is None:
            raise SimulationError(
                "spurious memory completion",
                core=self.core_id,
                cycle=self.engine.now,
            )
        # engine.now is the fill completion; execution resumes one cycle
        # later (the memory instruction itself retires).
        self._accum = 1
        if isinstance(op, Load) and op.on_value is not None:
            op.on_value(data)
        self._execute()

    def _finish(self) -> None:
        self.finish_time = self.engine.now + self._accum
        self._ops = None
        self.stats.add("finished")
        # Drop the callback as it is used: a finished core keeps no
        # reference to whoever started it (System.run's closure would
        # otherwise make the whole machine a reference cycle).
        on_done, self._on_done = self._on_done, None
        if on_done is not None:
            # Realize remaining local cycles before reporting completion.
            self.engine.schedule(self._accum, on_done, self)
        self._accum = 0
