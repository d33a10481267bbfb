"""A DRAM rank: a group of chips sharing command/address buses.

All chips in a rank decode every command in lockstep (Section 2 of the
paper); each contributes ``column_bytes`` to every cache line. The base
:class:`Rank` implements the conventional behaviour where every chip
accesses the *same* column. GS-DRAM overrides exactly one seam —
:meth:`Rank.chip_column` — to insert the per-chip column translation
logic (see :mod:`repro.core.module`).
"""

from __future__ import annotations

import numpy as np

from repro.dram.chip import Chip
from repro.errors import AddressError, ConfigError
from repro.utils.bitops import is_power_of_two


class Rank:
    """A lockstep group of chips forming one data word per column access.

    Storage is one lazily allocated ``uint8`` array per (bank, row), of
    shape ``(columns_per_row, chips, column_bytes)``: entry ``[c, i]``
    is chip ``i``'s column ``c``. In row-major order the array is the
    row in logical line order, so whole-row operations (PIM, bulk loads)
    work on it directly.
    """

    def __init__(
        self,
        chips: int,
        banks: int,
        rows_per_bank: int,
        columns_per_row: int,
        column_bytes: int = 8,
    ) -> None:
        if not is_power_of_two(chips):
            raise ConfigError(f"chip count must be a power of two, got {chips}")
        self.num_chips = chips
        self.banks = banks
        self.rows_per_bank = rows_per_bank
        self.columns_per_row = columns_per_row
        self.column_bytes = column_bytes
        self._rows: dict[tuple[int, int], np.ndarray] = {}
        self._row_shape = (columns_per_row, chips, column_bytes)
        self._chip_ids = np.arange(chips)
        self.chips = [Chip(self, i) for i in range(chips)]

    @property
    def line_bytes(self) -> int:
        """Bytes delivered per column command (the cache line size)."""
        return self.num_chips * self.column_bytes

    @property
    def row_bytes(self) -> int:
        """Bytes per DRAM row across the whole rank."""
        return self.columns_per_row * self.line_bytes

    # ------------------------------------------------------------------
    # Row storage
    # ------------------------------------------------------------------
    def _check_row(self, bank: int, row: int) -> None:
        if not 0 <= bank < self.banks:
            raise AddressError(f"bank {bank} out of range")
        if not 0 <= row < self.rows_per_bank:
            raise AddressError(f"row {row} out of range")

    def peek_row(self, bank: int, row: int) -> np.ndarray | None:
        """The live array of (bank, row), or None if it was never written.

        Range-checks the address; never allocates.
        """
        data = self._rows.get((bank, row))
        if data is None:
            self._check_row(bank, row)
        return data

    def row_array(self, bank: int, row: int) -> np.ndarray:
        """The live array of (bank, row), allocating zeros if untouched."""
        data = self._rows.get((bank, row))
        if data is None:
            self._check_row(bank, row)
            data = self._rows[(bank, row)] = np.zeros(self._row_shape, np.uint8)
        return data

    @property
    def allocated_rows(self) -> int:
        """Number of rows touched so far (memory-footprint introspection)."""
        return len(self._rows)

    # ------------------------------------------------------------------
    # The GS-DRAM seam
    # ------------------------------------------------------------------
    def chip_column(self, chip_id: int, column: int, pattern: int) -> int:
        """Column accessed by ``chip_id`` for an issued ``column``.

        Conventional DRAM ignores the pattern ID: every chip accesses
        the issued column. GS-DRAM's module overrides this with the CTL.
        """
        if pattern != 0:
            raise AddressError(
                "plain DRAM rank cannot honour a non-zero pattern ID "
                f"(got pattern {pattern}); use a GSRank"
            )
        return column

    # ------------------------------------------------------------------
    # Data movement
    # ------------------------------------------------------------------
    def _line_index(self, column: int, pattern: int):
        """Row-array index of one line: chip ``i`` supplies lane ``i``.

        Pattern 0 is the identity on every rank flavour, so every chip
        accesses ``column`` itself.
        """
        if pattern == 0:
            columns = [column]
        else:
            columns = [
                self.chip_column(chip, column, pattern) for chip in range(self.num_chips)
            ]
        for chip_column in columns:
            if not 0 <= chip_column < self.columns_per_row:
                raise AddressError(f"column {chip_column} out of range")
        return column if pattern == 0 else (np.array(columns), self._chip_ids)

    def read_line(self, bank: int, row: int, column: int, pattern: int = 0) -> bytes:
        """Read one line: chip ``i`` supplies byte lanes ``i*w..(i+1)*w``."""
        index = self._line_index(column, pattern)
        data = self.peek_row(bank, row)
        if data is None:
            return bytes(self.line_bytes)
        return data[index].tobytes()

    def write_line(
        self, bank: int, row: int, column: int, data: bytes, pattern: int = 0
    ) -> None:
        """Write one line: chip ``i`` absorbs byte lanes ``i*w..(i+1)*w``."""
        if len(data) != self.line_bytes:
            raise AddressError(
                f"line write of {len(data)} bytes, rank line size is {self.line_bytes}"
            )
        index = self._line_index(column, pattern)
        lanes = np.frombuffer(data, np.uint8).reshape(self.num_chips, -1)
        self.row_array(bank, row)[index] = lanes

    # ------------------------------------------------------------------
    # In-DRAM compute (docs/INDRAM.md)
    # ------------------------------------------------------------------
    def read_row(self, bank: int, row: int) -> bytes:
        """The whole row in logical line order (column 0 line first).

        Equivalent to ``columns_per_row`` pattern-0 ``read_line`` calls:
        pattern 0 is the identity on every rank flavour, so the row
        array is already in line order.
        """
        data = self.peek_row(bank, row)
        if data is None:
            return bytes(self.row_bytes)
        return data.tobytes()

    def write_row(self, bank: int, row: int, data: bytes) -> None:
        """Fill the whole row from ``data`` in logical line order."""
        if len(data) != self.row_bytes:
            raise AddressError(
                f"row write of {len(data)} bytes, rank row size is {self.row_bytes}"
            )
        stack = np.frombuffer(data, np.uint8).reshape(self._row_shape)
        self.row_array(bank, row)[...] = stack

    def mra(self, bank: int, rows: tuple[int, ...], dest: int, op: str) -> None:
        """Multi-row activate: latch the bitwise ``op`` of ``rows`` into ``dest``.

        Byte-wise AND/OR over 2-3 source rows, or bitwise majority over
        exactly 3 (``MAJ3(a,b,c) = (a&b)|(a&c)|(b&c)``). The ops are
        bit-local, so computing them over the whole row array is what
        every chip does to its own lanes in lockstep. Validity of the
        combination is enforced by :class:`repro.dram.commands.Command`;
        here we only range-check the addresses.
        """
        for r in (*rows, dest):
            self._check_row(bank, r)
        srcs = [self._rows.get((bank, r)) for r in rows]
        if any(src is None for src in srcs):
            zeros = np.zeros(self._row_shape, np.uint8)
            srcs = [zeros if src is None else src for src in srcs]
        if op == "AND":
            acc = srcs[0] & srcs[1]
            for src in srcs[2:]:
                acc &= src
        elif op == "OR":
            acc = srcs[0] | srcs[1]
            for src in srcs[2:]:
                acc |= src
        elif op == "MAJ":
            a, b, c = srcs
            acc = (a & b) | (a & c) | (b & c)
        else:
            raise AddressError(f"unknown MRA op {op!r}")
        self.row_array(bank, dest)[...] = acc

    def shift_row(self, bank: int, row: int, amount: int,
                  direction: str = "left") -> None:
        """Shift the row as one little-endian bit vector, zero-filling.

        Bit ``t`` lives in byte ``t // 8`` of the row's logical line
        order; shifts cross chip (and column) boundaries. The row array
        moves by whole bytes first, then the remaining bits carry
        between neighbouring bytes.
        """
        if amount <= 0:
            raise AddressError(f"shift amount must be positive, got {amount}")
        if direction not in ("left", "right"):
            raise AddressError(f"unknown shift direction {direction!r}")
        data = self.row_array(bank, row)
        flat = data.reshape(-1)
        size = flat.size
        whole, bits = divmod(amount, 8)
        out = np.zeros(size, np.uint8)
        if whole < size:
            if direction == "left":
                out[whole:] = flat[: size - whole]
                if bits:
                    carry = np.concatenate(([0], out[:-1])).astype(np.uint8)
                    out = (out << bits) | (carry >> (8 - bits))
            else:
                out[: size - whole] = flat[whole:]
                if bits:
                    carry = np.concatenate((out[1:], [0])).astype(np.uint8)
                    out = (out >> bits) | (carry << (8 - bits))
        flat[:] = out
