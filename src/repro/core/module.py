"""The GS-DRAM module: shuffled data mapping + per-chip CTL (Figure 6).

:class:`GSRank` extends the plain rank with one Column Translation
Logic per chip; :class:`GSModule` extends the plain module with the
controller-side data shuffling datapath. Together they implement the
full substrate: a READ with pattern ``p`` and column ``c`` returns a
cache line whose 8-byte values are gathered from per-chip columns
``(chip & p) ^ c``, assembled in ascending row-buffer order; a WRITE
scatters symmetrically.

The *shuffle flag* (Section 4.3) is honoured per access: pages whose
data structures never use strided patterns are stored unshuffled, and
behave exactly like commodity DRAM.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.ctl import ColumnTranslationLogic, build_ctls
from repro.core.shuffle import LSBShuffle, ShuffleFunction
from repro.dram.address import DecodedAddress, Geometry, MappingPolicy
from repro.dram.module import DRAMModule
from repro.dram.rank import Rank
from repro.dram.timing import DEFAULT_CPU_PER_BUS, DRAMTiming
from repro.errors import AddressError, PatternError
from repro.utils.bitops import ilog2, mask


class GSRank(Rank):
    """A rank whose chips each own a CTL (Figure 6's CTL-0 .. CTL-3)."""

    def __init__(
        self,
        chips: int,
        banks: int,
        rows_per_bank: int,
        columns_per_row: int,
        column_bytes: int,
        pattern_bits: int,
    ) -> None:
        super().__init__(chips, banks, rows_per_bank, columns_per_row, column_bytes)
        self.pattern_bits = pattern_bits
        self.ctls: list[ColumnTranslationLogic] = build_ctls(chips, pattern_bits)

    def chip_column(self, chip_id: int, column: int, pattern: int) -> int:
        """Per-chip column via the CTL; wraps within the row."""
        translated = self.ctls[chip_id].translate(column, pattern)
        if translated >= self.columns_per_row:
            raise AddressError(
                f"translated column {translated} exceeds row width "
                f"{self.columns_per_row}"
            )
        return translated


class LineTable(NamedTuple):
    """Everything one (column, pattern, shuffled) line access needs.

    ``lanes`` is :meth:`GSModule.lane_map`, ``order`` is
    :meth:`GSModule.assembly_order`, and ``index`` picks the gathered
    line out of a row array in assembly order: ``row[index]`` is
    ``(chips, column_bytes)``. ``index`` is the bare column when the
    access is that column's lanes in chip order, else the
    ``(chip columns, chip ids)`` fancy index.
    """

    lanes: tuple[tuple[int, int, int], ...]
    order: tuple[int, ...]
    index: int | tuple[np.ndarray, np.ndarray]


class GSModule(DRAMModule):
    """GS-DRAM(c, s, p): a module with shuffling and pattern support.

    Parameters mirror the paper's ``GS-DRAM_{c,s,p}`` notation:
    ``geometry.chips`` is *c*, ``shuffle.stages`` is *s*, and
    ``pattern_bits`` is *p*. The paper's evaluation configuration is
    GS-DRAM(8, 3, 3) — the defaults here.
    """

    def __init__(
        self,
        geometry: Geometry | None = None,
        timing: DRAMTiming | None = None,
        cpu_per_bus: int = DEFAULT_CPU_PER_BUS,
        policy: MappingPolicy = MappingPolicy.ROW_BANK_COLUMN,
        shuffle: ShuffleFunction | None = None,
        pattern_bits: int = 3,
    ) -> None:
        self.pattern_bits = pattern_bits
        self._shuffle_fn: ShuffleFunction | None = shuffle  # read by _build_rank
        super().__init__(geometry, timing, cpu_per_bus, policy)
        if shuffle is None:
            shuffle = LSBShuffle(stages=ilog2(self.geometry.chips))
        self.shuffle = shuffle
        if shuffle.stages > ilog2(self.geometry.chips):
            raise PatternError(
                f"{shuffle.stages} shuffle stages exceed log2(chips)="
                f"{ilog2(self.geometry.chips)}"
            )
        self._tables: dict[tuple[int, int, bool], LineTable] = {}
        self._column_keys = np.array(
            [shuffle.control_bits(c) for c in range(self.geometry.columns_per_row)]
        )

    def _build_rank(self) -> Rank:
        g = self.geometry
        return GSRank(
            g.chips, g.banks, g.rows_per_bank, g.columns_per_row,
            g.column_bytes, self.pattern_bits,
        )

    @property
    def supports_patterns(self) -> bool:
        return True

    # ------------------------------------------------------------------
    # Gather geometry
    # ------------------------------------------------------------------
    def lane_map(
        self, column: int, pattern: int, shuffled: bool = True
    ) -> list[tuple[int, int, int]]:
        """Per-chip (chip_column, value_index, row_index) for an access.

        ``value_index`` is which logical 8-byte value of pattern-0 line
        ``chip_column`` the chip supplies; ``row_index`` is the global
        8-byte-value index within the logical row buffer
        (``chip_column * chips + value_index``). Entry ``i`` describes
        chip ``i``.
        """
        chips = self.geometry.chips
        rank: GSRank = self.rank  # type: ignore[assignment]
        entries = []
        for chip_id in range(chips):
            chip_column = rank.chip_column(chip_id, column, pattern)
            key = self.shuffle.control_bits(chip_column) if shuffled else 0
            value_index = chip_id ^ key
            entries.append(
                (chip_column, value_index, chip_column * chips + value_index)
            )
        return entries

    def line_table(self, column: int, pattern: int, shuffled: bool = True) -> LineTable:
        """The memoized :class:`LineTable` of one access.

        Built once from the scalar :meth:`lane_map`; a failing access
        (bad pattern, translated column off the row, duplicate gather)
        is not memoized, so it raises on every call.
        """
        key = (column, pattern, shuffled)
        table = self._tables.get(key)
        if table is not None:
            return table
        lanes = self.lane_map(column, pattern, shuffled)
        # The controller assembles gathered values in ascending
        # row-buffer order, which for stride patterns is the natural
        # gather order and for pattern 0 reproduces the original line.
        order = sorted(range(len(lanes)), key=lambda chip: lanes[chip][2])
        row_indices = [lanes[chip][2] for chip in order]
        if len(set(row_indices)) != len(row_indices):
            raise PatternError(
                f"pattern {pattern} at column {column} gathers duplicate values "
                "(insufficient shuffle stages for this pattern)"
            )
        columns = [lanes[chip][0] for chip in order]
        if order == list(range(len(order))) and columns == [column] * len(order):
            index: int | tuple[np.ndarray, np.ndarray] = column
        else:
            index = (np.array(columns), np.array(order))
        table = self._tables[key] = LineTable(tuple(lanes), tuple(order), index)
        return table

    def assembly_order(
        self, column: int, pattern: int, shuffled: bool = True
    ) -> list[int]:
        """Chip IDs in the order their lanes appear in the gathered line."""
        return list(self.line_table(column, pattern, shuffled).order)

    def gathers_correctly(self, pattern: int) -> bool:
        """True if ``pattern`` gathers its intended value family here.

        The intent of pattern ``p`` is defined by the fully-shuffled
        geometry (:func:`repro.core.pattern.gather_spec`): e.g. pattern
        7 means "stride 8". With fewer shuffle stages, the CTL still
        returns one value per chip, but they are the *wrong* values —
        this check catches that (ablation abl-1 territory).
        """
        from repro.core.pattern import gather_spec

        chips = self.geometry.chips
        try:
            for column in range(min(self.geometry.columns_per_row, 16)):
                lanes = self.line_table(column, pattern).lanes
                actual = sorted(entry[2] for entry in lanes)
                intended = list(gather_spec(chips, pattern, column).indices)
                if actual != intended:
                    return False
        except PatternError:
            return False
        return True

    # ------------------------------------------------------------------
    # Functional data movement (overrides add shuffle + patterns)
    # ------------------------------------------------------------------
    def read_line(self, address: int, pattern: int = 0, shuffled: bool = True,
                  location: DecodedAddress | None = None) -> bytes:
        """Read one (possibly gathered) cache line.

        For pattern 0 this unshuffles back to the logical line; for a
        stride pattern the result holds the gathered values in ascending
        address order. ``location`` is ``address`` already decoded.
        """
        loc = self.mapping.decode(address) if location is None else location
        if loc.offset != 0:
            raise AddressError(f"line read of unaligned address {address:#x}")
        table = self.line_table(loc.column, pattern, shuffled)
        data = self.rank.peek_row(loc.bank, loc.row)
        if data is None:
            return bytes(self.line_bytes)
        return data[table.index].tobytes()

    def write_line(
        self, address: int, data: bytes, pattern: int = 0, shuffled: bool = True,
        location: DecodedAddress | None = None,
    ) -> None:
        """Write (scatter) one cache line; exact inverse of read_line."""
        loc = self.mapping.decode(address) if location is None else location
        if loc.offset != 0:
            raise AddressError(f"line write of unaligned address {address:#x}")
        if len(data) != self.line_bytes:
            raise AddressError(
                f"line write of {len(data)} bytes, line size is {self.line_bytes}"
            )
        table = self.line_table(loc.column, pattern, shuffled)
        lanes = np.frombuffer(data, np.uint8).reshape(self.geometry.chips, -1)
        self.rank.row_array(loc.bank, loc.row)[table.index] = lanes

    def _shuffle(
        self, values: np.ndarray, columns: np.ndarray, shuffled: bool
    ) -> np.ndarray:
        """Batch butterfly over whole lines; an involution, so it also unshuffles."""
        if not shuffled:
            return values
        from repro.vec.kernels import shuffle_lines

        # One element per lane; each line's control bits stand in for the
        # column of a full-width LSB butterfly, whose key they are.
        lanes = values.reshape(len(values), -1).view(
            np.dtype((np.void, self.geometry.column_bytes))
        )
        moved = shuffle_lines(
            lanes, self._column_keys[columns], ilog2(self.geometry.chips)
        )
        return moved.view(np.uint8).reshape(values.shape)

    # ------------------------------------------------------------------
    # Overlap geometry for cache coherence (Section 4.1)
    # ------------------------------------------------------------------
    def constituents(
        self, address: int, pattern: int, shuffled: bool = True
    ) -> list[tuple[int, int]]:
        """(pattern-0 line address, byte offset) per gathered value.

        Entry ``i`` locates the ``i``-th 8-byte value of the gathered
        line within the flat physical address space. Used by the cache
        coherence layer to find overlapping lines of the *other*
        pattern.
        """
        loc = self.mapping.decode(address)
        if loc.offset != 0:
            raise AddressError(f"constituents of unaligned address {address:#x}")
        table = self.line_table(loc.column, pattern, shuffled)
        width = self.geometry.column_bytes
        result = []
        for chip_id in table.order:
            chip_column, value_index, _row_index = table.lanes[chip_id]
            base = self.mapping.encode(loc.bank, loc.row, chip_column)
            result.append((base, value_index * width))
        return result

    def overlapping_columns(self, column: int, pattern: int) -> set[int]:
        """Columns of pattern-0 lines that share data with this gather."""
        low_column = column & mask(self.mapping.column_bits)
        return {
            (chip_id & pattern) ^ low_column for chip_id in range(self.geometry.chips)
        }
