"""Metadata-only replay of the cache hierarchy, DBI and open-row controller.

For a fast-compatible configuration (one blocking in-order core, no
prefetcher or store buffer, one channel, open-row policy; see
:func:`assert_fast_compatible`) every control-flow decision the event
machine's :class:`repro.cache.hierarchy.CacheHierarchy` and memory
controller make depends only on program order, addresses, patterns and
dirty bits, never on data or timing. :class:`DirtyReplay` replays an
access stream against a dict-based model of the two cache levels, the
Dirty-Block Index and the controller's per-bank open rows, reproducing
their exact statistic accounting without moving a byte:

- a cache line is the int key ``line_address | pattern`` (pattern ids
  fit below the line offset) mapped to its dirty bit;
- each set is a dict whose insertion order is its recency order: a
  touch re-inserts the key, and the victim is the first key;
- stores mark the DBI, drop the stale L2 copy, and evict overlapping
  other-pattern lines (Section 4.1), writing dirty ones back;
- fetches flush dirty overlaps via one DBI overlap query first;
- the controller replays per-bank open-row state in submission order.

Before the per-access loop, a numpy pass (:meth:`DirtyReplay._elided`)
removes accesses that are provably L1 hits with no other effect and
only counts them.

The replay owns one :func:`repro.vec.shim.machine_shim`
(:attr:`DirtyReplay.machine`); :meth:`DirtyReplay.publish` writes the
counters into its stat groups, and the run's
:class:`~repro.sim.results.RunResult`, its observability snapshot and
its component stats are all read from that one shim.

Functional values are computed separately: by numpy in
:mod:`repro.vec.db` and :mod:`repro.vec.gemm`, and line by line on the
functional module in :class:`repro.vec.fastpath.FastSystem`.
Equivalence with the event machine is enforced stat-by-stat by
:mod:`repro.check.fastpath`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.sim.config import Mechanism, SystemConfig
from repro.vec.shim import machine_shim, set_counts

_CACHE_STATS = (
    "hits", "misses", "fills", "evictions", "dirty_evictions", "invalidations",
)

#: ``(counts key prefix, stat names)`` of the controller, L1, L2,
#: hierarchy and DBI stat groups :meth:`DirtyReplay.publish` fills.
_PUBLISHED = (
    ("", ("requests", "requests_read", "requests_write", "requests_patterned",
          "row_hits", "row_misses", "cmd_PRE", "cmd_ACT", "cmd_RD", "cmd_WR")),
    ("l1_", _CACHE_STATS),
    ("l2_", _CACHE_STATS),
    ("", ("writebacks", "coherence_invalidations", "coherence_flushes",
          "prefetch_flushes")),
    ("dbi_", ("marks", "cleans", "overlap_queries")),
)


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


class DirtyReplay:
    """Stat-exact hierarchy/DBI/controller replay without data bytes."""

    def __init__(self, config: SystemConfig) -> None:
        assert_fast_compatible(config)
        self.config = config
        geometry = config.geometry
        self.geometry = geometry
        line_bytes = geometry.line_bytes
        # Line keys pack the pattern id into the line-offset bits.
        assert max(geometry.chips, 1 << config.pattern_bits) <= line_bytes
        self._offset_bits = line_bytes.bit_length() - 1
        self._pattern_mask = line_bytes - 1
        self._column_bits = geometry.columns_per_row.bit_length() - 1
        self._bank_bits = geometry.banks.bit_length() - 1
        self._column_mask = geometry.columns_per_row - 1
        self._bank_mask = geometry.banks - 1
        self._row_bank_column = (
            config.mapping_policy.value == "row-bank-column"
        )
        self._chips = geometry.chips
        self._supports_patterns = config.mechanism is Mechanism.GS_DRAM

        def sets_of(size: int, assoc: int) -> int:
            return size // (assoc * line_bytes)

        self._l1_assoc = config.l1_assoc
        self._l2_assoc = config.l2_assoc
        self._l1_mask = sets_of(config.l1_size, config.l1_assoc) - 1
        self._l2_mask = sets_of(config.l2_size, config.l2_assoc) - 1
        #: set index -> {line key: dirty}, least recently used first
        self._l1_sets: list[dict] = [{} for _ in range(self._l1_mask + 1)]
        self._l2_sets: list[dict] = [{} for _ in range(self._l2_mask + 1)]
        #: (bank, row) -> set of dirty line keys
        self._dbi: dict[tuple[int, int], set] = {}
        self._open_rows: list[int | None] = [None] * geometry.banks
        self._coords: dict[int, tuple[int, int, int]] = {}
        self._overlaps: dict[tuple[int, int], tuple] = {}
        self.counts = {
            "l1_hits": 0, "l1_misses": 0, "l1_fills": 0, "l1_evictions": 0,
            "l1_dirty_evictions": 0, "l1_invalidations": 0,
            "l2_hits": 0, "l2_misses": 0, "l2_fills": 0, "l2_evictions": 0,
            "l2_dirty_evictions": 0, "l2_invalidations": 0,
            "writebacks": 0, "coherence_invalidations": 0,
            "coherence_flushes": 0, "prefetch_flushes": 0,
            "dbi_marks": 0, "dbi_cleans": 0, "dbi_overlap_queries": 0,
            "requests": 0, "requests_read": 0, "requests_write": 0,
            "requests_patterned": 0, "row_hits": 0, "row_misses": 0,
            "cmd_PRE": 0, "cmd_ACT": 0, "cmd_RD": 0, "cmd_WR": 0,
        }
        #: The stat-only machine :meth:`publish` fills; results and
        #: observability read the replay through it.
        self.machine = machine_shim(config, core_counts={})

    # ------------------------------------------------------------------
    def coords(self, key: int) -> tuple[int, int, int]:
        """(bank, row, column) of a line address or line key, memoized."""
        got = self._coords.get(key)
        if got is None:
            line = key >> self._offset_bits
            if self._row_bank_column:
                column = line & self._column_mask
                line >>= self._column_bits
                bank = line & self._bank_mask
                row = line >> self._bank_bits
            else:
                bank = line & self._bank_mask
                line >>= self._bank_bits
                column = line & self._column_mask
                row = line >> self._column_bits
            got = (bank, row, column)
            self._coords[key] = got
        return got

    def _encode(self, bank: int, row: int, column: int) -> int:
        if self._row_bank_column:
            line = ((row << self._bank_bits) | bank) << self._column_bits | column
        else:
            line = ((row << self._column_bits) | column) << self._bank_bits | bank
        return line << self._offset_bits

    def _overlap_keys(self, key: int, alt: int):
        """Other-pattern line keys sharing data with this line (cached).

        Returns ``(keys_tuple, keys_set)`` in ascending key order; empty
        when the module has no pattern support or both patterns are
        zero — mirroring :meth:`CacheHierarchy._overlap_keys`.
        """
        memo_key = (key, alt)
        got = self._overlaps.get(memo_key)
        if got is None:
            pattern = key & self._pattern_mask
            other = alt if pattern == 0 else 0
            nonzero = pattern if pattern != 0 else alt
            if nonzero == 0 or not self._supports_patterns:
                got = ((), frozenset())
            else:
                bank, row, column = self.coords(key)
                columns = {
                    (chip & nonzero) ^ (column & self._column_mask)
                    for chip in range(self._chips)
                }
                keys = tuple(
                    self._encode(bank, row, c) | other for c in sorted(columns)
                )
                got = (keys, frozenset(keys))
            self._overlaps[memo_key] = got
        return got

    def _elided(self, keys: np.ndarray, alts: np.ndarray,
                writes: np.ndarray) -> np.ndarray:
        """Mask of accesses that are L1 hits with no effect but the count.

        After any access its key is the MRU line of its L1 set, dirty
        after a store, with no L2 copy and its overlaps evicted. An
        access is elided when the previous access that could have
        changed that set touched the same key, and it is a load or both
        are stores with the same alt (a repeated store is idempotent).
        Without overlap keys in the batch only demand accesses to a set
        change it, so the previous access to the same L1 set counts;
        otherwise only the immediately preceding access does. The first
        access of a set in the batch is never elided, because the cache
        state carries across :meth:`run` calls.
        """
        overlap_free = not self._supports_patterns or not (
            (keys & self._pattern_mask).any() or alts.any()
        )
        if overlap_free:
            sets = (keys >> self._offset_bits) & self._l1_mask
            order = np.argsort(sets, kind="stable")
            keys, alts, writes = keys[order], alts[order], writes[order]
        repeat = np.zeros(keys.size, dtype=bool)
        repeat[1:] = (keys[1:] == keys[:-1]) & (
            ~writes[1:] | (writes[:-1] & (alts[1:] == alts[:-1]))
        )
        if not overlap_free:
            return repeat
        elided = np.empty_like(repeat)
        elided[order] = repeat
        return elided

    # ------------------------------------------------------------------
    def run(self, line_addresses, patterns, alt_patterns, writes) -> None:
        """Replay one batch of accesses (appends to the running state).

        All four arguments are equal-length sequences or numpy arrays;
        ``line_addresses`` are line-aligned physical addresses.
        """
        keys = np.asarray(line_addresses, dtype=np.int64) | np.asarray(
            patterns, dtype=np.int64
        )
        alt_array = np.asarray(alt_patterns, dtype=np.int64)
        write_array = np.asarray(writes, dtype=bool)
        survive = ~self._elided(keys, alt_array, write_array)
        c = self.counts
        c["l1_hits"] += int(keys.size) - int(np.count_nonzero(survive))
        ks = keys[survive].tolist()
        alts = alt_array[survive].tolist()
        ws = write_array[survive].tolist()
        # Only the survivor lists stay alive through the loop.
        del keys, alt_array, write_array, survive

        l1_hits = c["l1_hits"]; l1_misses = c["l1_misses"]
        l1_fills = c["l1_fills"]; l1_evictions = c["l1_evictions"]
        l1_dirty_ev = c["l1_dirty_evictions"]; l1_inval = c["l1_invalidations"]
        l2_hits = c["l2_hits"]; l2_misses = c["l2_misses"]
        l2_fills = c["l2_fills"]; l2_evictions = c["l2_evictions"]
        l2_dirty_ev = c["l2_dirty_evictions"]; l2_inval = c["l2_invalidations"]
        writebacks = c["writebacks"]; coh_inval = c["coherence_invalidations"]
        coh_flushes = c["coherence_flushes"]; pf_flushes = c["prefetch_flushes"]
        dbi_marks = c["dbi_marks"]; dbi_cleans = c["dbi_cleans"]
        dbi_queries = c["dbi_overlap_queries"]
        requests = c["requests"]; req_read = c["requests_read"]
        req_write = c["requests_write"]; req_patt = c["requests_patterned"]
        row_hits = c["row_hits"]; row_misses = c["row_misses"]
        cmd_pre = c["cmd_PRE"]; cmd_act = c["cmd_ACT"]
        cmd_rd = c["cmd_RD"]; cmd_wr = c["cmd_WR"]

        l1_sets = self._l1_sets
        l2_sets = self._l2_sets
        l1_mask = self._l1_mask
        l2_mask = self._l2_mask
        l1_assoc = self._l1_assoc
        l2_assoc = self._l2_assoc
        offset_bits = self._offset_bits
        pattern_mask = self._pattern_mask
        dbi = self._dbi
        open_rows = self._open_rows
        coords = self.coords
        overlap_keys = self._overlap_keys
        supports = self._supports_patterns

        def submit(key, is_write):
            # The controller's accounting: request stats, then the
            # bank's open-row state machine, then the column command.
            nonlocal requests, req_read, req_write, req_patt
            nonlocal row_hits, row_misses, cmd_pre, cmd_act, cmd_rd, cmd_wr
            requests += 1
            if is_write:
                req_write += 1
                cmd_wr += 1
            else:
                req_read += 1
                cmd_rd += 1
            if key & pattern_mask:
                req_patt += 1
            bank, row, _ = coords(key)
            open_row = open_rows[bank]
            if open_row == row:
                row_hits += 1
            else:
                if open_row is not None:
                    cmd_pre += 1
                cmd_act += 1
                open_rows[bank] = row
                row_misses += 1

        def writeback(key):
            # CacheHierarchy._writeback minus the functional write:
            # DBI mark_clean, writebacks stat, timed WRITE request.
            nonlocal dbi_cleans, writebacks
            bank, row, _ = coords(key)
            entries = dbi.get((bank, row))
            if entries is not None:
                entries.discard(key)
                if not entries:
                    del dbi[(bank, row)]
                dbi_cleans += 1
            writebacks += 1
            submit(key, True)

        def evict_everywhere(key):
            # L2 before L1, writing dirty copies back (the single-core
            # form of CacheHierarchy._evict_everywhere).
            nonlocal l1_inval, l2_inval, coh_inval, coh_flushes
            flushed = False
            dirty = l2_sets[(key >> offset_bits) & l2_mask].pop(key, None)
            if dirty is not None:
                l2_inval += 1
                coh_inval += 1
                if dirty:
                    writeback(key)
                    flushed = True
            dirty = l1_sets[(key >> offset_bits) & l1_mask].pop(key, None)
            if dirty is not None:
                l1_inval += 1
                coh_inval += 1
                if dirty:
                    writeback(key)
                    flushed = True
            if flushed:
                coh_flushes += 1

        def apply_store(l1_set, key, was_dirty, alt):
            nonlocal dbi_marks, l2_inval
            if not was_dirty:
                l1_set[key] = True
                bank, row, _ = coords(key)
                row_set = dbi.get((bank, row))
                if row_set is None:
                    row_set = dbi[(bank, row)] = set()
                row_set.add(key)
                dbi_marks += 1
            # A dirty L1 line must not coexist with an L2 copy.
            if l2_sets[(key >> offset_bits) & l2_mask].pop(key, None) is not None:
                l2_inval += 1
            if supports:
                for other in overlap_keys(key, alt)[0]:
                    evict_everywhere(other)

        def fill_l2(key, dirty):
            # Cache.fill on L2: in-place refresh, or LRU eviction (a
            # dirty victim writes back) + insert.
            nonlocal l2_fills, l2_evictions, l2_dirty_ev
            target = l2_sets[(key >> offset_bits) & l2_mask]
            existing = target.pop(key, None)
            if existing is not None:
                target[key] = existing or dirty
                return
            victim = None
            if len(target) >= l2_assoc:
                victim = next(iter(target))
                l2_evictions += 1
                if target.pop(victim):
                    l2_dirty_ev += 1
                else:
                    victim = None
            target[key] = dirty
            l2_fills += 1
            if victim is not None:
                writeback(victim)

        for key, is_write, alt in zip(ks, ws, alts):
            l1_set = l1_sets[(key >> offset_bits) & l1_mask]
            dirty = l1_set.pop(key, None)
            if dirty is not None:
                l1_set[key] = dirty
                l1_hits += 1
                if is_write:
                    apply_store(l1_set, key, dirty, alt)
                continue
            l1_misses += 1

            l2_set = l2_sets[(key >> offset_bits) & l2_mask]
            dirty = l2_set.pop(key, None)
            if dirty is not None:
                l2_set[key] = dirty
                l2_hits += 1
            else:
                # Miss path: flush dirty overlaps, fetch, fill L2
                # (CacheHierarchy._start_fetch + _fill_complete for one
                # synchronous demand waiter).
                l2_misses += 1
                if supports:
                    others, other_set = overlap_keys(key, alt)
                    if others:
                        bank, row, _ = coords(key)
                        dbi_queries += 1
                        entries = dbi.get((bank, row))
                        if entries:
                            for other in sorted(entries & other_set):
                                pf_flushes += 1
                                evict_everywhere(other)
                submit(key, False)
                fill_l2(key, False)

            # Demand fill of the (absent) key into L1 as a clean line; a
            # dirty victim demotes to L2 (CacheHierarchy._demote_dirty).
            if len(l1_set) >= l1_assoc:
                victim = next(iter(l1_set))
                l1_evictions += 1
                if l1_set.pop(victim):
                    l1_dirty_ev += 1
                    fill_l2(victim, True)
            l1_set[key] = False
            l1_fills += 1
            if is_write:
                apply_store(l1_set, key, False, alt)

        c["l1_hits"] = l1_hits; c["l1_misses"] = l1_misses
        c["l1_fills"] = l1_fills; c["l1_evictions"] = l1_evictions
        c["l1_dirty_evictions"] = l1_dirty_ev; c["l1_invalidations"] = l1_inval
        c["l2_hits"] = l2_hits; c["l2_misses"] = l2_misses
        c["l2_fills"] = l2_fills; c["l2_evictions"] = l2_evictions
        c["l2_dirty_evictions"] = l2_dirty_ev; c["l2_invalidations"] = l2_inval
        c["writebacks"] = writebacks
        c["coherence_invalidations"] = coh_inval
        c["coherence_flushes"] = coh_flushes
        c["prefetch_flushes"] = pf_flushes
        c["dbi_marks"] = dbi_marks; c["dbi_cleans"] = dbi_cleans
        c["dbi_overlap_queries"] = dbi_queries
        c["requests"] = requests; c["requests_read"] = req_read
        c["requests_write"] = req_write; c["requests_patterned"] = req_patt
        c["row_hits"] = row_hits; c["row_misses"] = row_misses
        c["cmd_PRE"] = cmd_pre; c["cmd_ACT"] = cmd_act
        c["cmd_RD"] = cmd_rd; c["cmd_WR"] = cmd_wr

    def drain_dirty(self) -> None:
        """Mark every cached dirty line clean in the caches and the DBI.

        The accounting of :meth:`CacheHierarchy.drain_dirty`, which
        writes dirty lines back functionally before memory is read: one
        DBI clean per line, no writeback and no controller request.
        """
        dbi = self._dbi
        for cache_sets in (self._l1_sets, self._l2_sets):
            for lines in cache_sets:
                for key, dirty in lines.items():
                    if not dirty:
                        continue
                    lines[key] = False
                    bank, row, _ = self.coords(key)
                    entries = dbi.get((bank, row))
                    if entries is not None:
                        entries.discard(key)
                        if not entries:
                            del dbi[(bank, row)]
                        self.counts["dbi_cleans"] += 1

    def publish(self) -> None:
        """Write the counters into the stat groups of :attr:`machine`.

        The controller, cache, hierarchy and DBI groups are replaced
        wholesale; the core keeps the instruction counts its driver set
        and gets ``misses_blocked``: every demand L2 miss blocks the one
        core until its fill returns.
        """
        c = self.counts
        machine = self.machine
        hierarchy = machine.hierarchy
        groups = (
            machine.controller.stats, hierarchy.l1s[0].stats,
            hierarchy.l2.stats, hierarchy.stats, hierarchy.dbi.stats,
        )
        for stats, (prefix, names) in zip(groups, _PUBLISHED):
            set_counts(stats, {name: c[prefix + name] for name in names})
        if c["l2_misses"]:
            machine.cores[0].stats.counters["misses_blocked"] = c["l2_misses"]
