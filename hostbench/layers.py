"""Per-layer host-time tracing by wrapping public entry points.

The program has no spans of its own, so the benchmark installs them from
outside: each public function or method listed in :data:`LAYERS` is
replaced, for the duration of one traced pass, by a wrapper that opens a
span of its layer. :class:`SpanTracer` turns the spans into per-layer
self time (a span's duration minus the part its nested layer spans
cover) and call counts; :func:`installed` puts every original back on
exit, also when the pass raises.

A call from a layer into the same layer (``PIMExecutor.mra`` into
``Rank.mra``, ``load_rows`` into ``mem_write`` into ``write_line``) is
not a layer boundary: it opens no span and counts no call. Work counters
(``dataplane.lines``, ``vec.accesses``) count every call.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable

#: layer -> (module, "function" or "Class.method") entry points. A method
#: is wrapped on its class and on every subclass that overrides it.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "workload": (
        ("repro.db.workload", "make_rows"),
        ("repro.db.workload", "make_rows_array"),
        ("repro.db.workload", "generate_transactions"),
        ("repro.db.workload", "generate_transaction_arrays"),
        ("repro.gemm.matrix", "random_matrix"),
        ("repro.infer.generators", "prepare_gemv"),
        ("repro.infer.generators", "prepare_embed"),
        ("repro.infer.generators", "prepare_kvcache"),
    ),
    "dataplane": (
        ("repro.db.layouts", "StorageLayout.load_rows"),
        ("repro.db.layouts", "StorageLayout.read_rows"),
        ("repro.sim.system", "System.mem_write"),
        ("repro.sim.system", "System.mem_read"),
        ("repro.dram.module", "DRAMModule.read_line"),
        ("repro.dram.module", "DRAMModule.write_line"),
        ("repro.core.module", "GSModule.read_line"),
        ("repro.core.module", "GSModule.write_line"),
    ),
    "sim": (
        ("repro.sim.system", "System.run"),
    ),
    "cache": (
        ("repro.cache.hierarchy", "CacheHierarchy.access"),
        ("repro.cache.hierarchy", "CacheHierarchy.drain_dirty"),
    ),
    "mem": (
        ("repro.mem.controller", "MemoryController.submit"),
        ("repro.mem.schedulers", "Scheduler.choose"),
    ),
    "dram": (
        ("repro.dram.bank", "Bank.earliest_for_access"),
        ("repro.dram.bank", "Bank.issue_activate"),
        ("repro.dram.bank", "Bank.issue_precharge"),
        ("repro.dram.bank", "Bank.issue_read"),
        ("repro.dram.bank", "Bank.issue_write"),
        ("repro.dram.bank", "Bank.issue_mra"),
        ("repro.dram.bank", "Bank.issue_shift"),
    ),
    "vec": (
        ("repro.vec.hier", "DirtyReplay.run"),
        ("repro.vec.replay", "replay_two_level"),
        ("repro.vec.fastpath", "FastSystem.run"),
        ("repro.vec.db", "fast_transactions"),
        ("repro.vec.db", "fast_analytics"),
        ("repro.vec.db", "fast_htap_phased"),
        ("repro.vec.gemm", "fast_naive"),
        ("repro.vec.gemm", "fast_tiled"),
        ("repro.vec.gemm", "fast_gs"),
    ),
    "pim": (
        ("repro.pim.executor", "PIMExecutor.mra"),
        ("repro.pim.executor", "PIMExecutor.shift"),
        ("repro.pim.executor", "PIMExecutor.load_row"),
        ("repro.pim.executor", "PIMExecutor.read_lines"),
        ("repro.dram.rank", "Rank.mra"),
        ("repro.dram.rank", "Rank.shift_row"),
    ),
    "oracle": (
        ("repro.db.table", "OracleTable.apply_all"),
        ("repro.db.table", "OracleTable.column_sum"),
        ("repro.db.table", "VecOracleTable.apply_all"),
        ("repro.db.table", "VecOracleTable.column_sum"),
        ("repro.db.table", "table_digest"),
    ),
    "energy": (
        ("repro.energy.model", "system_energy"),
    ),
}

#: (module, target) -> (work counter, amount of work in one call).
WORK_COUNTERS: dict[tuple[str, str], tuple[str, Callable[..., int]]] = {
    ("repro.dram.module", "DRAMModule.read_line"): ("dataplane.lines", lambda a, r: 1),
    ("repro.dram.module", "DRAMModule.write_line"): ("dataplane.lines", lambda a, r: 1),
    ("repro.core.module", "GSModule.read_line"): ("dataplane.lines", lambda a, r: 1),
    ("repro.core.module", "GSModule.write_line"): ("dataplane.lines", lambda a, r: 1),
    ("repro.vec.hier", "DirtyReplay.run"): ("vec.accesses", lambda a, r: len(a[1])),
    ("repro.vec.replay", "replay_two_level"): ("vec.accesses", lambda a, r: len(a[0])),
    ("repro.vec.fastpath", "FastSystem.run"): (
        "vec.accesses", lambda a, r: r.loads + r.stores),
}


class SpanTracer:
    """Per-layer self time and call counts from nested spans."""

    def __init__(self, layers: Iterable[str] = LAYERS,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: dict[str, float] = {layer: 0.0 for layer in layers}
        self.calls: dict[str, int] = {layer: 0 for layer in layers}
        self.work: dict[str, int] = {
            name: 0 for name, _ in WORK_COUNTERS.values()
        }
        #: Open spans, innermost last: [layer, start, time in child spans].
        self._stack: list[list[Any]] = []

    @property
    def current(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> None:
        layer, start, child = self._stack.pop()
        duration = self.clock() - start
        self.self_s[layer] += duration - child
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration


def _wrap(fn: Callable, layer: str, tracer: SpanTracer,
          work: tuple[str, Callable[..., int]] | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.current == layer:
            result = fn(*args, **kwargs)
        else:
            tracer.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
        if work is not None:
            tracer.work[work[0]] += work[1](args, result)
        return result

    return wrapper


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found += [c for c in _subclasses(sub) if c not in found]
    return found


def _program_modules() -> list[Any]:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _wrap_method(cls: type, method: str, make: Callable[[Callable], Callable],
                 restore: list, wrapped: set) -> None:
    """Wrap ``method`` on ``cls`` and on every subclass that overrides it."""
    for owner in _subclasses(cls):
        original = owner.__dict__.get(method)
        if original is None or (owner, method) in wrapped:
            continue
        wrapped.add((owner, method))
        setattr(owner, method, make(original))
        restore.append(functools.partial(setattr, owner, method, original))


def _rebind_function(original: Callable, wrapper: Callable,
                     restore: list) -> None:
    """Replace ``original`` wherever a ``repro`` module holds it: module
    attributes (``from x import f`` copies included) and module-level
    dict values (dispatch tables such as ``infer.generators.PREPARERS``)."""
    for module in _program_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
                restore.append(functools.partial(setattr, module, key, original))
            elif type(value) is dict:
                for entry, item in list(value.items()):
                    if item is original:
                        value[entry] = wrapper
                        restore.append(functools.partial(
                            value.__setitem__, entry, original))


@contextmanager
def installed(tracer: SpanTracer):
    """Wrap every entry point of :data:`LAYERS` for ``tracer``; put every
    original back on exit, also when the body raises."""
    restore: list[Callable[[], None]] = []
    wrapped: set[tuple[type, str]] = set()
    try:
        for layer, targets in LAYERS.items():
            for module_name, target in targets:
                module = importlib.import_module(module_name)
                work = WORK_COUNTERS.get((module_name, target))

                def make(fn, layer=layer, work=work):
                    return _wrap(fn, layer, tracer, work)

                if "." in target:
                    class_name, method = target.split(".")
                    _wrap_method(getattr(module, class_name), method, make,
                                 restore, wrapped)
                else:
                    original = getattr(module, target)
                    _rebind_function(original, make(original), restore)
        yield tracer
    finally:
        for undo in reversed(restore):
            undo()
