"""Dirty-Block Index (DBI) [Seshadri+ ISCA'14], as used in Section 4.1.

Before fetching a gathered line, the controller must find dirty cache
lines of the *other* pattern that overlap it. All overlapping lines
live in the same DRAM row, so the paper proposes a DBI — a structure
that groups dirty-line metadata by DRAM row — to make that check fast.

This implementation indexes dirty (line address, pattern) keys by an
opaque row key (we use (bank, row)); the hierarchy updates it on every
dirty transition, writeback, and invalidation.
"""

from __future__ import annotations

from collections import defaultdict

from repro.utils.statistics import StatGroup


class DirtyBlockIndex:
    """Row-indexed dirty-line directory."""

    def __init__(self) -> None:
        self._by_row: dict[tuple[int, int], set[tuple[int, int]]] = defaultdict(set)
        self.stats = StatGroup("dbi")

    def mark_dirty(self, row_key: tuple[int, int], line_key: tuple[int, int]) -> None:
        """Record that (line address, pattern) in ``row_key`` is dirty."""
        self._by_row[row_key].add(line_key)
        self.stats.counters["marks"] += 1

    def mark_clean(self, row_key: tuple[int, int], line_key: tuple[int, int]) -> None:
        """Remove a line from the index (written back or invalidated)."""
        entries = self._by_row.get(row_key)
        if entries is None:
            return
        entries.discard(line_key)
        if not entries:
            del self._by_row[row_key]
        self.stats.counters["cleans"] += 1

    def dirty_in_row(self, row_key: tuple[int, int]) -> set[tuple[int, int]]:
        """Dirty (line address, pattern) keys within one DRAM row."""
        self.stats.add("row_queries")
        return set(self._by_row.get(row_key, ()))

    def dirty_overlaps(
        self,
        row_key: tuple[int, int],
        candidate_keys: set[tuple[int, int]],
    ) -> set[tuple[int, int]]:
        """Dirty lines among ``candidate_keys``, restricted to one row.

        This is the Section 4.1 check: candidates are the <= c lines of
        the other pattern that overlap a line being fetched/modified.
        """
        self.stats.counters["overlap_queries"] += 1
        entries = self._by_row.get(row_key)
        if not entries:
            return set()
        return entries & candidate_keys

    def total_dirty(self) -> int:
        """Number of dirty lines tracked (consistency checks in tests)."""
        return sum(len(entries) for entries in self._by_row.values())
