"""Page table with per-page GS-DRAM metadata (paper Section 4.3).

``pattmalloc`` records two attributes per virtual page: the *shuffle
flag* (whether the controller's shuffle network applies to this page's
data) and the *alternate pattern ID* (the one non-zero pattern the data
structure may be accessed with — the Section 4.1 coherence
simplification restricts each structure to pattern 0 plus one
alternate).

The simulator uses an identity virtual->physical mapping; the page
table's job here is metadata delivery, which is what the paper's TLB
extension provides to the core.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AllocationError, PatternError
from repro.utils.statistics import StatGroup


@dataclass(frozen=True)
class PageInfo:
    """Per-page GS-DRAM attributes stored in the page table / TLB."""

    shuffled: bool = False
    alt_pattern: int = 0


class PageTable:
    """Page-granular metadata map with identity address translation."""

    def __init__(self, page_bytes: int = 4096) -> None:
        if page_bytes <= 0 or page_bytes & (page_bytes - 1):
            raise PatternError(f"page size must be a power of two, got {page_bytes}")
        self.page_bytes = page_bytes
        self._pages: dict[int, PageInfo] = {}
        self.stats = StatGroup("page_table")
        self._default = PageInfo()

    def map_range(self, start: int, size: int, info: PageInfo) -> None:
        """Attach ``info`` to every page covering [start, start+size).

        If multiple virtual ranges map to one physical page, the OS must
        use the same alternate pattern for all of them (Section 4.1) —
        conflicting remapping raises.
        """
        if size <= 0:
            raise AllocationError(f"cannot map non-positive size {size}")
        first = start // self.page_bytes
        last = (start + size - 1) // self.page_bytes
        for page in range(first, last + 1):
            existing = self._pages.get(page)
            if existing is not None and existing != info:
                raise PatternError(
                    f"page {page:#x} already mapped with {existing}, "
                    f"conflicting remap to {info}"
                )
            self._pages[page] = info

    def lookup(self, address: int) -> PageInfo:
        """Page attributes for ``address`` (defaults for unmapped pages)."""
        self.stats.add("lookups")
        return self._pages.get(address // self.page_bytes, self._default)

    def translate(self, address: int) -> tuple[int, bool, int]:
        """Core-facing translation: (paddr, shuffled, alt_pattern).

        Called once per load/store, so it does :meth:`lookup`'s work
        inline rather than through a second call.
        """
        self.stats.counters["lookups"] += 1
        info = self._pages.get(address // self.page_bytes, self._default)
        return (address, info.shuffled, info.alt_pattern)
