"""A complete DRAM module: functional rank + per-bank timing state.

The module is the unit the memory controller talks to. It bundles the
functional storage (:class:`~repro.dram.rank.Rank`), per-bank timing
state machines, and the address mapping. Subclasses swap in a GS-DRAM
rank (see :class:`repro.core.module.GSModule`) without touching the
controller.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.dram.address import AddressMapping, DecodedAddress, Geometry, MappingPolicy
from repro.dram.bank import Bank
from repro.dram.rank import Rank
from repro.dram.timing import DEFAULT_CPU_PER_BUS, DRAMTiming, ddr3_1600
from repro.errors import AddressError


class DRAMModule:
    """A single-rank DRAM module (the paper: 1 channel, 1 rank, 8 banks)."""

    def __init__(
        self,
        geometry: Geometry | None = None,
        timing: DRAMTiming | None = None,
        cpu_per_bus: int = DEFAULT_CPU_PER_BUS,
        policy: MappingPolicy = MappingPolicy.ROW_BANK_COLUMN,
    ) -> None:
        self.geometry = geometry or Geometry()
        bus_timing = timing or ddr3_1600()
        self.timing = bus_timing.scaled(cpu_per_bus)
        self.cpu_per_bus = cpu_per_bus
        self.mapping = AddressMapping(self.geometry, policy)
        self.rank = self._build_rank()
        self.banks = [Bank(i, self.timing) for i in range(self.geometry.banks)]

    def _build_rank(self) -> Rank:
        """Construct the functional rank; the GS module overrides this."""
        g = self.geometry
        return Rank(g.chips, g.banks, g.rows_per_bank, g.columns_per_row, g.column_bytes)

    @property
    def line_bytes(self) -> int:
        return self.geometry.line_bytes

    @property
    def supports_patterns(self) -> bool:
        """Whether non-zero pattern IDs are honoured (False for plain DRAM)."""
        return False

    # ------------------------------------------------------------------
    # Functional access (timing-free), used by loaders and tests
    # ------------------------------------------------------------------
    def decode(self, address: int) -> DecodedAddress:
        return self.mapping.decode(address)

    def read_line(self, address: int, pattern: int = 0, shuffled: bool = False,
                  location: DecodedAddress | None = None) -> bytes:
        """Functionally read the line containing ``address``.

        ``shuffled`` is accepted for interface compatibility with the GS
        module and ignored (plain DRAM has no shuffle network).
        ``location`` is ``address`` already decoded (the controller's
        ``locate``); it saves the decode here.
        """
        loc = self.mapping.decode(address) if location is None else location
        if loc.offset != 0:
            raise AddressError(f"line read of unaligned address {address:#x}")
        return self.rank.read_line(loc.bank, loc.row, loc.column, pattern)

    def write_line(
        self, address: int, data: bytes, pattern: int = 0, shuffled: bool = False,
        location: DecodedAddress | None = None,
    ) -> None:
        """Functionally write the line containing ``address``."""
        loc = self.mapping.decode(address) if location is None else location
        if loc.offset != 0:
            raise AddressError(f"line write of unaligned address {address:#x}")
        self.rank.write_line(loc.bank, loc.row, loc.column, data, pattern)

    # ------------------------------------------------------------------
    # Bulk regions, used by loaders and readback
    # ------------------------------------------------------------------
    def _check_ends(self, address: int, end: int) -> None:
        """Range-check a region's first and last byte before touching it."""
        self.mapping.decode(address)
        self.mapping.decode(end - 1)

    def _row_groups(
        self, base: int, count: int
    ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
        """(bank, row, positions, columns) per DRAM row of ``count`` lines.

        ``positions`` index the lines from ``base`` that fall into the
        row and ``columns`` are their columns in it. Lines are decoded a
        bank-set of rows at a time, which bounds the index arrays.
        """
        from repro.vec.kernels import decompose_addresses

        g = self.geometry
        step = g.banks * g.columns_per_row
        for start in range(0, count, step):
            positions = np.arange(start, min(start + step, count), dtype=np.int64)
            fields = decompose_addresses(
                base + positions * g.line_bytes,
                banks=g.banks,
                rows_per_bank=g.rows_per_bank,
                columns_per_row=g.columns_per_row,
                line_bytes=g.line_bytes,
                policy=self.mapping.policy,
            )
            banks, rows, columns = fields["bank"], fields["row"], fields["column"]
            keys = banks * g.rows_per_bank + rows
            order = np.argsort(keys, kind="stable")
            cuts = np.flatnonzero(np.diff(keys[order])) + 1
            for group in np.split(order, cuts):
                first = group[0]
                yield (int(banks[first]), int(rows[first]), positions[group],
                       columns[group])

    def _shuffle(
        self, values: np.ndarray, columns: np.ndarray, shuffled: bool
    ) -> np.ndarray:
        """Swap lines ``(lines, chips, column_bytes)`` at ``columns`` between
        logical and stored lane order: the identity, as plain DRAM has no
        shuffle network (the GS module overrides this)."""
        return values

    def write_region(self, address: int, data: bytes, shuffled: bool = False) -> None:
        """Write ``data`` at ``address`` (any alignment) in logical order.

        Whole lines take one batch shuffle and one array assignment per
        DRAM row; only a partial first or last line is read, patched and
        written back.
        """
        if not len(data):
            return
        line_bytes = self.line_bytes
        end = address + len(data)
        self._check_ends(address, end)
        for base in sorted({address - address % line_bytes,
                            (end - 1) - (end - 1) % line_bytes}):
            low, high = max(base, address), min(base + line_bytes, end)
            if high - low < line_bytes:
                line = bytearray(self.read_line(base, 0, shuffled))
                line[low - base : high - base] = data[low - address : high - address]
                self.write_line(base, bytes(line), 0, shuffled)
        full_start = -(-address // line_bytes) * line_bytes
        count = (end - full_start) // line_bytes
        if count <= 0:
            return
        g = self.geometry
        values = np.frombuffer(
            data, np.uint8, count * line_bytes, full_start - address
        ).reshape(count, g.chips, g.column_bytes)
        for bank, row, group, columns in self._row_groups(full_start, count):
            stored = self._shuffle(values[group], columns, shuffled)
            self.rank.row_array(bank, row)[columns] = stored

    def read_region(self, address: int, length: int, shuffled: bool = False) -> bytes:
        """Read ``length`` bytes from ``address`` (any alignment) in logical order."""
        if length <= 0:
            return b""
        line_bytes = self.line_bytes
        end = address + length
        self._check_ends(address, end)
        first = address - address % line_bytes
        count = -(-(end - first) // line_bytes)
        g = self.geometry
        values = np.zeros((count, g.chips, g.column_bytes), np.uint8)
        for bank, row, group, columns in self._row_groups(first, count):
            data = self.rank.peek_row(bank, row)
            if data is not None:
                values[group] = self._shuffle(data[columns], columns, shuffled)
        return values.reshape(-1)[address - first : end - first].tobytes()

    # Byte-granularity convenience for loaders: the region paths with the
    # GS module's native line default (plain modules ignore the flag).
    def read_bytes(self, address: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``address`` (may span lines)."""
        return self.read_region(address, length, shuffled=True)

    def write_bytes(self, address: int, data: bytes) -> None:
        """Write ``data`` starting at ``address`` (may span lines)."""
        self.write_region(address, data, shuffled=True)
