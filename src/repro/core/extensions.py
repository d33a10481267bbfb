"""Section 6 extensions: programmable shuffling, wider patterns,
intra-chip column translation, and ECC support.

Programmable shuffle functions live in :mod:`repro.core.shuffle`
(``MaskedShuffle``, ``XorFoldShuffle``); wider pattern IDs live in the
CTL (chip-ID repetition). This module adds the remaining two pieces:

- **Intra-chip column translation** (Section 6.3): each DRAM chip is a
  2-D collection of tiles (MATs), each contributing equally to the
  chip's 8-byte column. Placing a CTL per tile lets a single READ
  gather values *smaller* than 8 bytes (e.g. 4-byte floats).
- **ECC** (Section 6.3): with an ECC chip that supports intra-chip
  translation, a gather with a non-zero pattern can fetch each data
  value's ECC word from a different tile of the ECC chip, keeping ECC
  coverage for all patterns with no extra bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ctl import ColumnTranslationLogic
from repro.errors import PatternError
from repro.utils.bitops import ilog2, is_power_of_two


class TiledChip:
    """A DRAM chip modelled as ``tiles`` MATs with per-tile CTLs.

    Each column access normally reads ``tiles`` sub-values, one per
    tile, concatenated into the chip's output word. With intra-chip
    translation, each tile applies its own CTL using the *tile ID* in
    place of the chip ID, so a single column command can select a
    different column per tile.
    """

    def __init__(
        self,
        tiles: int,
        columns_per_row: int,
        tile_bytes: int,
        pattern_bits: int,
    ) -> None:
        if not is_power_of_two(tiles):
            raise PatternError(f"tile count must be a power of two, got {tiles}")
        self.tiles = tiles
        self.columns_per_row = columns_per_row
        self.tile_bytes = tile_bytes
        self.pattern_bits = pattern_bits
        self.ctls = [
            ColumnTranslationLogic(tile, tiles, pattern_bits) for tile in range(tiles)
        ]
        # Rows allocated lazily: row -> bytearray of columns * tiles * tile_bytes.
        self._rows: dict[int, bytearray] = {}

    def _row(self, row: int) -> bytearray:
        data = self._rows.get(row)
        if data is None:
            data = bytearray(self.columns_per_row * self.tiles * self.tile_bytes)
            self._rows[row] = data
        return data

    def _slot(self, column: int, tile: int) -> slice:
        start = (column * self.tiles + tile) * self.tile_bytes
        return slice(start, start + self.tile_bytes)

    def write_column(self, row: int, column: int, data: bytes, pattern: int = 0) -> None:
        """Scatter one chip word across tiles (tile CTLs applied)."""
        if len(data) != self.tiles * self.tile_bytes:
            raise PatternError(
                f"chip word is {self.tiles * self.tile_bytes} bytes, got {len(data)}"
            )
        storage = self._row(row)
        for tile, ctl in enumerate(self.ctls):
            tile_column = ctl.translate(column, pattern) % self.columns_per_row
            lane = data[tile * self.tile_bytes : (tile + 1) * self.tile_bytes]
            storage[self._slot(tile_column, tile)] = lane

    def read_column(self, row: int, column: int, pattern: int = 0) -> bytes:
        """Gather one chip word: tile ``t`` reads column ``(t & p) ^ c``."""
        storage = self._rows.get(row)
        if storage is None:
            return bytes(self.tiles * self.tile_bytes)
        parts = []
        for ctl in self.ctls:
            tile_column = ctl.translate(column, pattern) % self.columns_per_row
            parts.append(bytes(storage[self._slot(tile_column, ctl.chip_id)]))
        return b"".join(parts)


@dataclass(frozen=True)
class EccWord:
    """An ECC codeword for one 8-byte data value (SECDED-style parity).

    We model the code as an 8-bit XOR checksum per value — enough to
    demonstrate coverage (any single-byte corruption is detected), while
    keeping the model simple.
    """

    parity: int

    @classmethod
    def of(cls, value: bytes) -> "EccWord":
        parity = 0
        for byte in value:
            parity ^= byte
        return cls(parity=parity)

    def check(self, value: bytes) -> bool:
        return EccWord.of(value).parity == self.parity


class EccGSModule:
    """A GS module plus an ECC chip with intra-chip translation.

    Wraps a :class:`~repro.core.module.GSModule` and maintains one ECC
    byte per 8-byte value in a :class:`TiledChip` with as many tiles as
    the module has data chips. On a gather with pattern ``p``, the ECC
    chip's tile ``t`` translates the column exactly like data chip
    ``t``, so the gathered ECC line covers the gathered data line
    value-for-value.
    """

    def __init__(self, module) -> None:
        from repro.core.module import GSModule  # local to avoid cycle at import

        if not isinstance(module, GSModule):
            raise PatternError("EccGSModule requires a GSModule")
        self.module = module
        geometry = module.geometry
        self.ecc_chip = TiledChip(
            tiles=geometry.chips,
            columns_per_row=geometry.columns_per_row,
            tile_bytes=1,
            pattern_bits=module.pattern_bits,
        )
        self._ecc_rows: dict[tuple[int, int], bool] = {}

    def _ecc_row_key(self, bank: int, row: int) -> int:
        """Flatten (bank, row) into the ECC chip's row index."""
        return bank * self.module.geometry.rows_per_bank + row

    def write_line(
        self, address: int, data: bytes, pattern: int = 0, shuffled: bool = True
    ) -> None:
        """Write data + recompute the ECC bytes for the written values."""
        self.module.write_line(address, data, pattern, shuffled)
        loc = self.module.decode(address)
        width = self.module.geometry.column_bytes
        # ECC tile t must hold the parity of whatever data chip t holds;
        # recompute parity lane-aligned with the chips' stored columns.
        order = self.module.assembly_order(loc.column, pattern, shuffled)
        ecc_row = self._ecc_row_key(loc.bank, loc.row)
        current = bytearray(
            self.ecc_chip.read_column(ecc_row, loc.column, pattern)
        )
        for position, chip_id in enumerate(order):
            value = data[position * width : (position + 1) * width]
            current[chip_id] = EccWord.of(value).parity
        self.ecc_chip.write_column(ecc_row, loc.column, bytes(current), pattern)

    def read_line_checked(
        self, address: int, pattern: int = 0, shuffled: bool = True
    ) -> bytes:
        """Read a (gathered) line, verifying every value against its ECC."""
        data = self.module.read_line(address, pattern, shuffled)
        loc = self.module.decode(address)
        width = self.module.geometry.column_bytes
        order = self.module.assembly_order(loc.column, pattern, shuffled)
        ecc_row = self._ecc_row_key(loc.bank, loc.row)
        ecc = self.ecc_chip.read_column(ecc_row, loc.column, pattern)
        for position, chip_id in enumerate(order):
            value = data[position * width : (position + 1) * width]
            if not EccWord(parity=ecc[chip_id]).check(value):
                raise PatternError(
                    f"ECC mismatch at address {address:#x}, pattern {pattern}, "
                    f"value {position}"
                )
        return data

    def corrupt_value(self, address: int, value_index: int) -> None:
        """Flip one byte of a stored value (fault injection for tests)."""
        line = bytearray(self.module.read_line(address, pattern=0))
        width = self.module.geometry.column_bytes
        line[value_index * width] ^= 0xFF
        # Bypass ECC update: write through the raw module only.
        self.module.write_line(address, bytes(line), pattern=0)
