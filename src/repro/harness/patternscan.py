"""Strided-scan driver with an event-exact vectorized fast path.

``run_patternscan`` runs one point of the abl-6 / Figure-7-style sweep:
a scalar strided scan (pattern 0) or the equivalent gathered scan
(pattern ``stride - 1``) over the same data, returning functional
counts, the scan answer, a digest of every loaded value, and the DRAM
row-locality profile.

Two execution modes produce bit-identical functional results:

- ``mode="event"`` — the full event-driven machine; the abl-6 figure
  (:func:`repro.harness.ablations.run_pattern_sweep`) is built from
  these points. Timing outputs (cycles, queue delays) are meaningful.
- ``mode="fast"`` — no machine at all: the access stream, the cache
  behaviour, the gathered values, and the row-buffer locality are all
  computed with the batched kernels of :mod:`repro.vec`. Timing outputs
  are zero.

Equivalence between the two is not assumed: :mod:`repro.check.fastpath`
diffs them access-for-access, and the bench harness
(:mod:`repro.perf.bench`) records the speedup. The exactness argument
is the read-only single-core one documented in docs/PERFORMANCE.md:
with one blocking core there is never more than one outstanding miss,
so cache replacement and per-bank DRAM service order are both exactly
the program order the fast path replays.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from repro.cpu.isa import Compute, Load, pattload
from repro.errors import ConfigError, WorkloadError
from repro.obs.session import current_session
from repro.perf.specs import RunSpec
from repro.sim.config import SystemConfig, table1_config
from repro.sim.results import RunResult, StageTimer, collect_result
from repro.sim.system import System
from repro.utils.bitops import is_power_of_two
from repro.vec.kernels import decompose_addresses, gather_addresses_batch
from repro.vec.replay import (
    AccessTrace,
    ReplayCache,
    dedupe_consecutive,
    replay_two_level,
    row_locality,
)
from repro.vec.shim import machine_shim
from repro.vm.pattmalloc import PattAllocator

#: Strides of the standard sweep: every multi-value stride the 3-bit
#: pattern space supports with 8 values per line.
SWEEP_STRIDES = (2, 4, 8)
VARIANTS = ("scalar", "gathered")


@dataclass
class PatternScanRun:
    """Outcome of one (variant, stride) scan in one mode."""

    variant: str
    stride: int
    lines: int
    mode: str
    result: RunResult
    answer: int
    expected: int
    verified: bool
    #: sha256 over the loaded values, in program order, as little-endian
    #: u64 bytes — equal across modes iff every loaded value is equal.
    values_digest: str
    #: Row-buffer locality of the DRAM read stream (RowProfile.as_dict
    #: shape: totals + per-bank counts).
    row_profile: dict = field(default_factory=dict)


def _scan_config(config_overrides: dict | None) -> SystemConfig:
    overrides = {"l2_size": 64 * 1024}
    overrides.update(config_overrides or {})
    return table1_config(**overrides)


def _check_point(variant: str, stride: int, lines: int) -> None:
    if variant not in VARIANTS:
        raise ConfigError(f"unknown patternscan variant {variant!r}")
    if not is_power_of_two(stride) or not 2 <= stride <= 8:
        raise ConfigError(f"stride must be 2, 4, or 8, got {stride}")
    if lines <= 0 or lines % 8:
        raise ConfigError(f"lines must be a positive multiple of 8: {lines}")


def run_patternscan(
    variant: str,
    stride: int,
    lines: int = 2048,
    mode: str = "event",
    config_overrides: dict | None = None,
) -> PatternScanRun:
    """Run one strided-scan point; see the module docstring."""
    _check_point(variant, stride, lines)
    if mode == "event":
        return _run_event(variant, stride, lines, config_overrides)
    if mode == "fast":
        return _run_fast(variant, stride, lines, config_overrides)
    raise ConfigError(f"unknown patternscan mode {mode!r}")


def pattern_sweep_specs(
    lines: int = 2048, mode: str = "event", obs: str = "off"
) -> list[RunSpec]:
    """RunSpecs for the full sweep (every stride x both variants)."""
    return [
        RunSpec(
            kind="patternscan",
            params={"variant": variant, "stride": stride, "lines": lines},
            mode=mode,
            obs=obs,
        )
        for stride in SWEEP_STRIDES
        for variant in VARIANTS
    ]


# ----------------------------------------------------------------------
# Event mode: the full machine, instrumented for the row profile
# ----------------------------------------------------------------------
def _run_event(
    variant: str, stride: int, lines: int, config_overrides: dict | None
) -> PatternScanRun:
    timer = StageTimer()
    with timer.stage("setup"):
        config = _scan_config(config_overrides)
        pattern = stride - 1
        total_values = lines * 8

        system = System(config)
        # The per-bank row profile is derived from the actual command
        # stream, so the fast path's analytics are checked against
        # commands the controller really issued, not a second model of
        # them. A tracing session has already handed in its own log.
        if system.controller.command_log is None:
            system.controller.command_log = []
        command_log = system.controller.command_log
        first_command = len(command_log)
        base = system.pattmalloc(lines * 64, shuffle=True, pattern=pattern)
    with timer.stage("generate"):
        system.mem_write(
            base, struct.pack(f"<{total_values}Q", *range(total_values))
        )

    chunks: list[bytes] = []
    k = stride.bit_length() - 1

    def scalar_ops():
        for index in range(0, total_values, stride):
            yield Load(base + index * 8, pc=0x7000 + k, on_value=chunks.append)
            yield Compute(1)

    def gathered_ops():
        gathers = total_values // (stride * 8)
        for g in range(gathers):
            column = g * stride
            for j in range(8):
                yield pattload(
                    base + column * 64 + j * 8,
                    pattern=pattern,
                    pc=(0x7100 if j else 0x7180) + k,
                    on_value=chunks.append,
                )
                yield Compute(1)

    ops = scalar_ops() if variant == "scalar" else gathered_ops()
    with timer.stage("run"):
        result = system.run([ops])

    with timer.stage("verify"):
        answer = sum(struct.unpack("<Q", chunk)[0] for chunk in chunks)
        expected = sum(range(0, total_values, stride))
    timer.attach(result)
    return PatternScanRun(
        variant=variant,
        stride=stride,
        lines=lines,
        mode="event",
        result=result,
        answer=answer,
        expected=expected,
        verified=answer == expected,
        values_digest=hashlib.sha256(b"".join(chunks)).hexdigest(),
        row_profile=_profile_from_commands(command_log[first_command:]),
    )


def _profile_from_commands(command_log) -> dict:
    """Per-bank row-locality counts from the controller's command log.

    Every row miss issues exactly one ACT (preceded by a PRE unless the
    bank was closed), so per bank: misses = ACTs, hits = RD+WR - ACTs.
    """
    per_bank: dict[int, dict[str, int]] = {}
    for _time, command in command_log:
        counts = per_bank.setdefault(
            command.bank,
            {"reads": 0, "row_hits": 0, "row_misses": 0,
             "activates": 0, "precharges": 0},
        )
        kind = command.kind.value
        if kind in ("RD", "WR"):
            counts["reads"] += 1
        elif kind == "ACT":
            counts["activates"] += 1
        elif kind == "PRE":
            counts["precharges"] += 1
    for counts in per_bank.values():
        counts["row_misses"] = counts["activates"]
        counts["row_hits"] = counts["reads"] - counts["activates"]
    return {
        "row_hits": sum(c["row_hits"] for c in per_bank.values()),
        "row_misses": sum(c["row_misses"] for c in per_bank.values()),
        "activates": sum(c["activates"] for c in per_bank.values()),
        "precharges": sum(c["precharges"] for c in per_bank.values()),
        "per_bank": {
            str(bank): dict(counts)
            for bank, counts in sorted(per_bank.items())
        },
    }


# ----------------------------------------------------------------------
# Fast mode: batched kernels, no machine
# ----------------------------------------------------------------------
def _run_fast(
    variant: str, stride: int, lines: int, config_overrides: dict | None
) -> PatternScanRun:
    timer = StageTimer()
    with timer.stage("setup"):
        config = _scan_config(config_overrides)
        geometry = config.geometry
        line_bytes = geometry.chips * geometry.column_bytes
        pattern = stride - 1
        total_values = lines * 8

        # Identical physical placement: the same bump allocator the
        # System uses, so base addresses (and therefore bank/row
        # coordinates) match the event run byte for byte.
        allocator = PattAllocator(
            capacity_bytes=geometry.capacity_bytes,
            line_bytes=line_bytes,
            row_bytes=geometry.row_bytes,
        )
        base = allocator.pattmalloc(lines * 64, shuffle=True, pattern=pattern)
    with timer.stage("generate"):
        payload = np.arange(total_values, dtype=np.int64)

    with timer.stage("run"):
        if variant == "scalar":
            value_indices = np.arange(0, total_values, stride, dtype=np.int64)
            addresses = base + value_indices * 8
            line_addresses = addresses & ~np.int64(line_bytes - 1)
            patterns = np.zeros_like(line_addresses)
            values = payload[value_indices]
        else:
            gathers = total_values // (stride * 8)
            columns = np.arange(gathers, dtype=np.int64) * stride
            gathered_lines = base + columns * line_bytes
            slots = gather_addresses_batch(
                gathered_lines,
                np.full(gathers, pattern, dtype=np.int64),
                chips=geometry.chips,
                banks=geometry.banks,
                rows_per_bank=geometry.rows_per_bank,
                columns_per_row=geometry.columns_per_row,
                column_bytes=geometry.column_bytes,
                shuffle_stages=config.shuffle_stages,
                pattern_bits=config.pattern_bits,
                bank_interleaved=False,
            )
            source_indices = slots - base
            if source_indices.size and (
                int(source_indices.min()) < 0
                or int(source_indices.max()) >= total_values * 8
                or (source_indices % 8).any()
            ):
                raise WorkloadError(
                    "gathered value addresses escaped the allocation"
                )
            values = payload[source_indices // 8].reshape(-1)
            line_addresses = np.repeat(gathered_lines, geometry.chips)
            patterns = np.full_like(line_addresses, pattern)

        # Cache behaviour: consecutive same-line accesses are guaranteed
        # MRU L1 hits (dropped, counted as hits); the rest replay
        # through the two-level LRU arrays.
        trace = AccessTrace(line_addresses, patterns)
        keep = dedupe_consecutive(trace)
        kept = AccessTrace(line_addresses[keep], patterns[keep])
        l1 = ReplayCache(config.l1_size, config.l1_assoc, line_bytes)
        l2 = ReplayCache(config.l2_size, config.l2_assoc, line_bytes)
        l1_hit_mask, l2_hit_mask = replay_two_level(kept, l1, l2)

        accesses = len(trace)
        deduped_hits = int((~keep).sum())
        l1_hits = deduped_hits + int(l1_hit_mask.sum())
        l1_misses = accesses - l1_hits
        l2_hits = int(l2_hit_mask.sum())
        l2_misses = l1_misses - l2_hits

        # DRAM read stream (service order == program order) -> locality.
        dram_lines = kept.line_addresses[~l1_hit_mask & ~l2_hit_mask]
        coords = decompose_addresses(
            dram_lines,
            banks=geometry.banks,
            rows_per_bank=geometry.rows_per_bank,
            columns_per_row=geometry.columns_per_row,
            line_bytes=line_bytes,
            policy=config.mapping_policy,
        )
        profile = row_locality(coords["bank"], coords["row"])

    with timer.stage("verify"):
        answer = int(values.sum())
        expected = sum(range(0, total_values, stride))
        digest = hashlib.sha256(values.astype("<u8").tobytes()).hexdigest()

    def cache_counts(cache: ReplayCache, hits: int, misses: int) -> dict:
        # Fills == misses; evictions are fills that displaced a line.
        return {
            "hits": hits,
            "misses": misses,
            "fills": misses,
            "evictions": max(0, misses - int((cache.tags != -1).sum())),
        }

    # L1 fills come from both L2 hits and L2 misses; only L2 misses
    # fill L2 itself. Every L2 miss is one DRAM read.
    machine = machine_shim(
        config,
        core_counts={
            "instructions": 2 * accesses,
            "loads": accesses,
            "misses_blocked": l2_misses,
            "finished": 1,
        },
        l1_counts=cache_counts(l1, l1_hits, l1_misses),
        l2_counts=cache_counts(l2, l2_hits, l2_misses),
        controller_counts={
            "requests": l2_misses,
            "requests_read": l2_misses,
            "requests_patterned": l2_misses if variant == "gathered" else 0,
            "cmd_RD": l2_misses,
            "cmd_ACT": profile.activates,
            "cmd_PRE": profile.precharges,
            "row_hits": profile.row_hits,
            "row_misses": profile.row_misses,
        },
    )
    session = current_session()
    if session is not None:
        session.attach(machine)
    result = timer.attach(collect_result(machine))

    return PatternScanRun(
        variant=variant,
        stride=stride,
        lines=lines,
        mode="fast",
        result=result,
        answer=answer,
        expected=expected,
        verified=answer == expected,
        values_digest=digest,
        row_profile=profile.as_dict(),
    )
