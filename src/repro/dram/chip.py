"""Functional model of a single DRAM chip.

A chip stores, for every (bank, row), a row of columns; each column is
``column_bytes`` wide (8 bytes for a x8 chip bursting 8 beats — the
chip's share of one 64-byte cache line). The bytes themselves live in
the owning :class:`repro.dram.rank.Rank`, one lazily allocated numpy
array per (bank, row) of shape ``(columns_per_row, chips,
column_bytes)``; chip ``i`` is the view ``row[:, i, :]``. Untouched
rows read as zeros and are not allocated by reads.

The chip is purely functional: all timing lives in
:class:`repro.dram.bank.Bank` and the memory controller.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import AddressError

if TYPE_CHECKING:
    from repro.dram.rank import Rank


class Chip:
    """One DRAM chip: a view of its byte lane in the rank's row arrays."""

    def __init__(self, rank: "Rank", chip_id: int) -> None:
        self.rank = rank
        self.chip_id = chip_id
        self.column_bytes = rank.column_bytes

    def _check_column(self, column: int) -> None:
        if not 0 <= column < self.rank.columns_per_row:
            raise AddressError(f"chip {self.chip_id}: column {column} out of range")

    def read_column(self, bank: int, row: int, column: int) -> bytes:
        """Return the ``column_bytes`` stored at (bank, row, column)."""
        data = self.rank.peek_row(bank, row)
        self._check_column(column)
        if data is None:
            return bytes(self.column_bytes)
        return data[column, self.chip_id].tobytes()

    def write_column(self, bank: int, row: int, column: int, value: bytes) -> None:
        """Store ``value`` (exactly ``column_bytes`` long) at the column."""
        self._check_column(column)
        if len(value) != self.column_bytes:
            raise AddressError(
                f"chip {self.chip_id}: write of {len(value)} bytes, "
                f"column width is {self.column_bytes}"
            )
        lane = np.frombuffer(value, np.uint8)
        self.rank.row_array(bank, row)[column, self.chip_id] = lane

    @property
    def allocated_rows(self) -> int:
        """Number of rows touched so far (memory-footprint introspection)."""
        return self.rank.allocated_rows
