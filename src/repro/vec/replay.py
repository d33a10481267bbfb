"""Batched trace replay: array-backed LRU caches + row-locality analytics.

Replays a whole access trace against a set-associative LRU model whose
state lives in flat numpy arrays — one tag and one LRU-stamp slot per
(set, way), with the pattern ID folded into the tag exactly as the real
cache extends its tag with the pattern (Section 4.1). The replacement
decisions reproduce :class:`repro.cache.cache.Cache` bit-for-bit:
stamps are a single global tick per touch, the victim is the minimum
stamp in the set, and fills touch the inserted line.

The model covers read-only replay (no dirty state): that is the shape
of the figure-7 pattern scans and the Section 5.3 app sweeps the fast
path serves. Workloads with stores go through
:class:`repro.vec.hier.DirtyReplay`, which models dirty state and the
DBI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError, PatternError
from repro.utils.bitops import ilog2, is_power_of_two

#: Bits of the replay tag reserved for the pattern ID. Every modelled
#: geometry has pattern_bits <= 8, so (line_address << 8) | pattern is
#: collision-free and keeps the tag a single int64.
PATTERN_TAG_BITS = 8


@dataclass
class AccessTrace:
    """One batch of cache accesses: line addresses + pattern IDs."""

    line_addresses: np.ndarray
    patterns: np.ndarray

    def __post_init__(self) -> None:
        self.line_addresses = np.asarray(self.line_addresses, dtype=np.int64)
        self.patterns = np.asarray(self.patterns, dtype=np.int64)
        if self.line_addresses.shape != self.patterns.shape:
            raise ConfigError(
                f"trace shape mismatch: {self.line_addresses.shape} addresses "
                f"vs {self.patterns.shape} patterns"
            )
        if self.patterns.size and (
            int(self.patterns.min()) < 0
            or int(self.patterns.max()) >= (1 << PATTERN_TAG_BITS)
        ):
            raise PatternError(
                f"replay patterns must fit in {PATTERN_TAG_BITS} bits"
            )

    def __len__(self) -> int:
        return int(self.line_addresses.shape[0])

    @property
    def tags(self) -> np.ndarray:
        """Tag per access: line address with the pattern ID appended."""
        return (self.line_addresses << PATTERN_TAG_BITS) | self.patterns


def dedupe_consecutive(trace: AccessTrace) -> np.ndarray:
    """Keep-mask dropping consecutive repeats of one (line, pattern).

    A repeat of the immediately preceding key is a guaranteed L1 hit on
    the MRU line; dropping it skips only a touch of the line that is
    already most-recently-used, so every later replacement decision is
    unchanged. Callers count the dropped accesses as L1 hits.
    """
    keep = np.ones(len(trace), dtype=bool)
    if len(trace) > 1:
        tags = trace.tags
        keep[1:] = tags[1:] != tags[:-1]
    return keep


class ReplayCache:
    """Set/tag/LRU-stamp arrays for one cache level.

    Mirrors the geometry rules of :class:`repro.cache.cache.Cache`
    (power-of-two set count, set index from the line address only).
    """

    def __init__(
        self, size_bytes: int, associativity: int, line_bytes: int = 64
    ) -> None:
        if size_bytes % (associativity * line_bytes) != 0:
            raise ConfigError(
                f"size {size_bytes} not divisible by assoc*line "
                f"({associativity}*{line_bytes})"
            )
        self.num_sets = size_bytes // (associativity * line_bytes)
        if not is_power_of_two(self.num_sets):
            raise ConfigError(f"set count {self.num_sets} not a power of two")
        self.associativity = associativity
        self.line_bytes = line_bytes
        self._offset_bits = ilog2(line_bytes)
        self._set_mask = self.num_sets - 1
        #: -1 marks an empty way; stamps start at 0 (< any real touch).
        self.tags = np.full((self.num_sets, associativity), -1, dtype=np.int64)
        self.stamps = np.zeros((self.num_sets, associativity), dtype=np.int64)
        self.tick = 0

    def set_indices(self, line_addresses: np.ndarray) -> np.ndarray:
        return (line_addresses >> self._offset_bits) & self._set_mask

    def resident(self, line_address: int, pattern: int) -> bool:
        """Is (line, pattern) currently cached? (test/diagnostic hook)"""
        set_index = (line_address >> self._offset_bits) & self._set_mask
        tag = (line_address << PATTERN_TAG_BITS) | pattern
        return bool((self.tags[set_index] == tag).any())


def replay_two_level(
    trace: AccessTrace, l1: ReplayCache, l2: ReplayCache
) -> tuple[np.ndarray, np.ndarray]:
    """Replay a read-only trace through L1 then L2.

    Returns boolean masks ``(l1_hits, l2_hits)`` aligned with the trace;
    ``~l1_hits & ~l2_hits`` is the DRAM read stream, in access order.
    The per-level LRU decisions are exactly those the event-driven
    hierarchy makes for a blocking single-core read stream: L1 hits
    touch L1 only; L1-miss/L2-hits touch L2 then fill L1; double misses
    fill L2 then L1 (fills touch the inserted line, evict min-stamp).
    """
    n = len(trace)
    l1_hits = np.zeros(n, dtype=bool)
    l2_hits = np.zeros(n, dtype=bool)
    if n == 0:
        return l1_hits, l2_hits

    tags = trace.tags.tolist()
    l1_sets = l1.set_indices(trace.line_addresses).tolist()
    l2_sets = l2.set_indices(trace.line_addresses).tolist()

    # The hot loop runs over plain Python lists (scalar numpy indexing
    # would dominate); the array state is synced back afterwards.
    l1_tags = l1.tags.tolist()
    l1_stamps = l1.stamps.tolist()
    l2_tags = l2.tags.tolist()
    l2_stamps = l2.stamps.tolist()
    l1_tick = l1.tick
    l2_tick = l2.tick

    for i in range(n):
        tag = tags[i]
        set_tags = l1_tags[l1_sets[i]]
        set_stamps = l1_stamps[l1_sets[i]]
        try:
            way = set_tags.index(tag)
        except ValueError:
            way = -1
        if way >= 0:
            l1_tick += 1
            set_stamps[way] = l1_tick
            l1_hits[i] = True
            continue

        set2_tags = l2_tags[l2_sets[i]]
        set2_stamps = l2_stamps[l2_sets[i]]
        try:
            way2 = set2_tags.index(tag)
        except ValueError:
            way2 = -1
        if way2 >= 0:
            l2_tick += 1
            set2_stamps[way2] = l2_tick
            l2_hits[i] = True
        else:
            # Fill L2: evict the min-stamp way, insert touched.
            victim2 = set2_stamps.index(min(set2_stamps))
            l2_tick += 1
            set2_tags[victim2] = tag
            set2_stamps[victim2] = l2_tick
        # Fill L1 (both on L2 hit and on L2 miss).
        victim = set_stamps.index(min(set_stamps))
        l1_tick += 1
        set_tags[victim] = tag
        set_stamps[victim] = l1_tick

    l1.tags = np.asarray(l1_tags, dtype=np.int64)
    l1.stamps = np.asarray(l1_stamps, dtype=np.int64)
    l1.tick = l1_tick
    l2.tags = np.asarray(l2_tags, dtype=np.int64)
    l2.stamps = np.asarray(l2_stamps, dtype=np.int64)
    l2.tick = l2_tick
    return l1_hits, l2_hits


@dataclass
class RowProfile:
    """Row-buffer locality of one DRAM access stream."""

    row_hits: int = 0
    row_misses: int = 0
    activates: int = 0
    precharges: int = 0
    #: bank -> {"reads", "row_hits", "row_misses", "activates",
    #: "precharges"}
    per_bank: dict[int, dict[str, int]] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
            "activates": self.activates,
            "precharges": self.precharges,
            "per_bank": {
                str(bank): dict(counts)
                for bank, counts in sorted(self.per_bank.items())
            },
        }


def row_locality(banks, rows) -> RowProfile:
    """Open-row replay of a DRAM access stream, fully vectorized.

    ``banks``/``rows`` are the coordinates of each DRAM access in
    service order. A stable sort groups each bank's accesses while
    preserving their temporal order, so "same row as the previous
    access to this bank" is one shifted comparison. Banks start closed:
    the first access to a bank activates without a precharge, exactly
    like the event controller's bank state machine.
    """
    banks = np.asarray(banks, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    profile = RowProfile()
    n = banks.shape[0]
    if n == 0:
        return profile
    order = np.argsort(banks, kind="stable")
    b = banks[order]
    r = rows[order]
    same_bank = np.zeros(n, dtype=bool)
    same_bank[1:] = b[1:] == b[:-1]
    hits = np.zeros(n, dtype=bool)
    hits[1:] = same_bank[1:] & (r[1:] == r[:-1])
    misses = ~hits
    # A miss on an already-open bank needs PRE + ACT; the first access
    # to a (closed) bank needs only ACT.
    precharged = misses & same_bank

    profile.row_hits = int(hits.sum())
    profile.row_misses = int(misses.sum())
    profile.activates = profile.row_misses
    profile.precharges = int(precharged.sum())

    for bank in np.unique(b).tolist():
        mask = b == bank
        bank_hits = int(hits[mask].sum())
        bank_pre = int(precharged[mask].sum())
        reads = int(mask.sum())
        profile.per_bank[int(bank)] = {
            "reads": reads,
            "row_hits": bank_hits,
            "row_misses": reads - bank_hits,
            "activates": reads - bank_hits,
            "precharges": bank_pre,
        }
    return profile
