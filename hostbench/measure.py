"""Cold passes over a workload's specs, and the metrics they give.

One pass executes every spec of the workload in order, in this process,
through :func:`repro.perf.specs.execute_spec` (no process pool, no
result cache, ``obs="off"``): a closed loop with one client. A spec
execution is one operation; it fails if it raises or if its driver
returns ``verified`` false. Every pass of a run uses the same seed, so
the simulated counters of every spec must repeat exactly; a pass whose
counters differ from the first (warm-up) pass has all its operations
counted as failed.

Host times are corrected for the host's speed. The benchmark shares its
CPUs with other work, which slows everything by up to about 1.6x for
stretches of a minute or more; a median cannot remove a slowdown that
lasts a whole run. So a fixed pure-Python reference kernel is timed
before the first spec and after every spec, and each spec's host time
(and each of its stages) is multiplied by ``(KERNEL_REFERENCE_S / k) **
KERNEL_EXPONENT``, where ``k`` is the mean of the two kernel times around
it: seconds at the speed of a host that runs the kernel in
``KERNEL_REFERENCE_S``. The kernel runs no code of the program, so a
change to the program cannot move it. Raw seconds are kept alongside
(``raw_wall_s``).
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.db.workload import clear_workload_caches
from repro.harness.specsets import spec_label
from repro.perf.specs import RunSpec, execute_spec

from hostbench.layers import LAYERS, SpanTracer, installed

#: Iterations of the reference kernel (about 6-9 ms per timing).
KERNEL_ITERATIONS = 100_000
#: The kernel's time on an uncontended 2-CPU Xeon VM with CPython 3.11.
KERNEL_REFERENCE_S = 0.006
#: A slow host slows the simulator more than the kernel: on that VM, log
#: spec time regressed on log kernel time has slope 1.16 (gather-pim), and
#: the run-to-run spread of all three workloads is smallest near 1.2-1.3.
KERNEL_EXPONENT = 1.2

#: End-to-end metrics (traced runs report none of them): name -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_instr_per_s": "1/s",
    "peak_rss_mb": "MB",
    "verified_share": "fraction",
}

#: Exact simulated counts summed over a pass's specs: name -> unit.
EXACT_COUNTS = {
    "sim.cycles": "cycles",
    "sim.instructions": "count",
    "sim.engine_events": "count",
    "cache.l1_misses": "count",
    "cache.l2_misses": "count",
    "cache.l1_hit_rate": "fraction",
    "cache.writebacks": "count",
    "mem.mean_queue_delay_cycles": "cycles",
    "dram.reads": "count",
    "dram.writes": "count",
    "dram.row_hit_rate": "fraction",
    "pim.mra_cmds": "count",
    "pim.shift_cmds": "count",
    "dataplane.lines": "count",
    "vec.accesses": "count",
}

#: Per-layer metrics of a traced run: name -> unit.
PER_LAYER = {
    **{
        f"{layer}.{metric}": unit
        for layer in LAYERS
        for metric, unit in (("self_s", "s"), ("calls", "count"),
                             ("share", "fraction"))
    },
    "unattributed.self_s": "s",
    "trace_overhead_s": "s",
    "failed_share": "fraction",
    **EXACT_COUNTS,
}


@dataclass
class Pass:
    """One cold pass: host times, simulated counters, failures.

    ``wall_s``, ``setup_s`` and ``run_s`` are speed-corrected seconds.
    """

    wall_s: float
    raw_wall_s: float
    setup_s: float
    run_s: float
    instructions: int
    failed: int
    #: (spec label, RunResult.to_dict() or None when the spec raised).
    counters: list
    exact: dict[str, float]
    tracer: SpanTracer | None = None
    digest: str = field(init=False)

    def __post_init__(self) -> None:
        self.digest = counters_digest(self.counters)

    @property
    def instr_per_s(self) -> float:
        return self.instructions / self.run_s if self.run_s else 0.0


def counters_digest(counters: list) -> str:
    """sha256 over every spec's simulated counters, in pass order."""
    blob = json.dumps(counters, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def exact_counts(results: list) -> dict[str, float]:
    """The :data:`EXACT_COUNTS` a pass's RunResults sum to."""

    def total(get) -> float:
        return sum(get(r) for r in results)

    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    timed = [r for r in results if "mean_memory_queue_delay" in r.extra]
    accesses = sum(r.memory_accesses for r in timed)
    l1_hits = total(lambda r: r.l1_hits)
    l1_misses = total(lambda r: r.l1_misses)
    return {
        "sim.cycles": total(lambda r: r.cycles),
        "sim.instructions": total(lambda r: r.instructions),
        "sim.engine_events": total(lambda r: r.extra.get("engine_events", 0)),
        "cache.l1_misses": l1_misses,
        "cache.l2_misses": total(lambda r: r.l2_misses),
        "cache.l1_hit_rate": ratio(l1_hits, l1_misses),
        "cache.writebacks": total(lambda r: r.writebacks),
        "mem.mean_queue_delay_cycles": (
            sum(r.extra["mean_memory_queue_delay"] * r.memory_accesses
                for r in timed) / accesses if accesses else 0.0
        ),
        "dram.reads": total(lambda r: r.dram_reads),
        "dram.writes": total(lambda r: r.dram_writes),
        "dram.row_hit_rate": ratio(total(lambda r: r.row_hits),
                                   total(lambda r: r.row_misses)),
        "pim.mra_cmds": total(lambda r: r.extra.get("cmd_MRA2", 0)
                              + r.extra.get("cmd_MRA3", 0)),
        "pim.shift_cmds": total(lambda r: r.extra.get("cmd_SHIFT", 0)),
    }


def kernel_seconds() -> float:
    """Host seconds the reference kernel takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(KERNEL_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def _execute(spec: RunSpec):
    """The driver's record, or None when the spec raised (reported)."""
    try:
        return execute_spec(spec)
    except Exception:  # one failed operation; the pass goes on
        print(f"operation {spec_label(spec)} raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return None


def run_pass(specs: list[RunSpec], tracer: SpanTracer | None = None) -> Pass:
    """Execute ``specs`` once, cold; trace layers when ``tracer`` is given."""
    clear_workload_caches()
    records, seconds, kernels = [], [], [kernel_seconds()]
    with installed(tracer) if tracer is not None else nullcontext():
        for spec in specs:
            start = time.perf_counter()
            records.append(_execute(spec))
            seconds.append(time.perf_counter() - start)
            kernels.append(kernel_seconds())
    scale = [(2 * KERNEL_REFERENCE_S / (before + after)) ** KERNEL_EXPONENT
             for before, after in zip(kernels, kernels[1:])]
    done = [(record.result, factor)
            for record, factor in zip(records, scale) if record is not None]
    return Pass(
        wall_s=sum(t * factor for t, factor in zip(seconds, scale)),
        raw_wall_s=sum(seconds),
        setup_s=sum(r.stages.get("setup", 0.0) * f for r, f in done),
        run_s=sum(r.stages.get("run", 0.0) * f for r, f in done),
        instructions=sum(r.instructions for r, _ in done),
        failed=sum(record is None or not record.verified
                   for record in records),
        counters=[
            [spec_label(spec), None if record is None else record.result.to_dict()]
            for spec, record in zip(specs, records)
        ],
        exact=exact_counts([r for r, _ in done]),
        tracer=tracer,
    )


@dataclass
class Run:
    """Every pass of one benchmark run, warm-up first."""

    specs: list[RunSpec]
    warmup: Pass
    passes: list[Pass]
    traced: list[Pass]

    def __post_init__(self) -> None:
        # Counter check: every pass must repeat the warm-up's counters;
        # traced passes must also repeat each other's call and work counts.
        first_traced = self.traced[0].tracer if self.traced else None
        for p in self.passes + self.traced:
            same = p.digest == self.warmup.digest
            if p.tracer is not None:
                same = same and (p.tracer.calls == first_traced.calls
                                 and p.tracer.work == first_traced.work)
            if not same:
                p.failed = len(self.specs)

    @property
    def all_passes(self) -> list[Pass]:
        return [self.warmup] + self.passes + self.traced

    @property
    def attempted(self) -> int:
        return len(self.specs) * len(self.all_passes)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.all_passes)


def measure(specs: list[RunSpec], seconds: float, trace: bool,
            min_passes: int = 3) -> Run:
    """A warm-up pass, then passes until ``seconds`` have elapsed.

    The warm-up pass is not timed: it pays for imports and first-touch
    allocation. With ``trace`` each untraced pass is followed by a
    traced one, so the two sets see the same machine state.
    """
    warmup = run_pass(specs)
    passes: list[Pass] = []
    traced: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        passes.append(run_pass(specs))
        if trace:
            traced.append(run_pass(specs, SpanTracer()))
    return Run(specs, warmup, passes, traced)


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(run: Run) -> dict[str, float]:
    median = statistics.median
    return {
        "wall_s": median(p.wall_s for p in run.passes),
        "setup_s": median(p.setup_s for p in run.passes),
        "sim_instr_per_s": median(p.instr_per_s for p in run.passes),
        "peak_rss_mb": peak_rss_mb(),
        "verified_share": 1.0 - run.failed / run.attempted,
    }


def per_layer_metrics(run: Run) -> dict[str, float]:
    """Layer self times, speed-corrected like ``wall_s``; shares of it."""
    median = statistics.median
    traced = run.traced
    first = traced[0]

    def corrected(p: Pass, raw_seconds: float) -> float:
        return raw_seconds * p.wall_s / p.raw_wall_s

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = median(
            corrected(p, p.tracer.self_s[layer]) for p in traced)
        metrics[f"{layer}.calls"] = first.tracer.calls[layer]
        metrics[f"{layer}.share"] = median(
            p.tracer.self_s[layer] / p.raw_wall_s for p in traced)
    metrics["unattributed.self_s"] = median(
        corrected(p, p.raw_wall_s - sum(p.tracer.self_s.values()))
        for p in traced)
    metrics["trace_overhead_s"] = (median(p.wall_s for p in traced)
                                   - median(p.wall_s for p in run.passes))
    metrics["failed_share"] = run.failed / run.attempted
    metrics.update(first.exact)
    metrics.update(first.tracer.work)
    return metrics
