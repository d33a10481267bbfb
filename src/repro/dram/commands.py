"""DRAM command types.

The controller drives banks with the standard DDR command set. Commands
are validated immutable records (named tuples, cheap to build once per
issued command) so they can be logged, counted by the energy model, and
replayed in tests.

Beyond the stock DDR vocabulary this model adds two in-DRAM compute
commands (see docs/INDRAM.md):

- ``MULTI_ROW_ACTIVATE`` (MRA): simultaneously open 2-3 rows of one
  bank so the shared bitlines compute a bitwise AND/OR/majority of
  their contents, latching the result into a destination row
  (PULSAR-style many-row activation).
- ``SHIFT``: shift the addressed row's contents as one little-endian
  bit vector by ``amount`` bit positions (Shifting-in-DRAM-style
  in-array shifter), zero-filling.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.errors import ProtocolError

_new_tuple = tuple.__new__


class CommandKind(enum.Enum):
    """The DDR command vocabulary used by this model."""

    ACTIVATE = "ACT"
    PRECHARGE = "PRE"
    READ = "RD"
    WRITE = "WR"
    REFRESH = "REF"
    MULTI_ROW_ACTIVATE = "MRA"
    SHIFT = "SHIFT"

    def __init__(self, value: str) -> None:
        #: Controller stat counted per issued command of this kind (a
        #: member attribute: an Enum member hashes in Python).
        self.stat = f"cmd_{value}"


#: Bitwise operations a multi-row activation can compute. AND/OR accept
#: 2 or 3 source rows; MAJ (bitwise majority) requires exactly 3.
MRA_OPS = ("AND", "OR", "MAJ")


class _CommandFields(NamedTuple):
    kind: CommandKind
    bank: int
    row: int = 0
    column: int = 0
    pattern: int = 0
    rows: tuple[int, ...] = ()
    op: str = ""
    amount: int = 0


class Command(_CommandFields):
    """One command as issued on the command/address bus.

    ``pattern`` is the GS-DRAM pattern ID riding on the spare column
    address pins (Section 3.6); it is 0 for conventional accesses and is
    ignored by plain (non-GS) modules.

    ``rows``/``op`` are populated only for MRA (source rows and the
    bitwise operation; ``row`` holds the destination), ``amount`` only
    for SHIFT (bit positions, direction ``left``/``right`` in ``op``).

    Every construction is validated (:meth:`_validate`).
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: CommandKind,
        bank: int,
        row: int = 0,
        column: int = 0,
        pattern: int = 0,
        rows: tuple[int, ...] = (),
        op: str = "",
        amount: int = 0,
    ) -> "Command":
        command = _new_tuple(cls, (kind, bank, row, column, pattern, rows, op,
                                   amount))
        command._validate()
        return command

    def _validate(self) -> None:
        # Audit shared fields first: REF is the only broadcast (bank-less)
        # command; everything else addresses a real bank and row/column.
        if self.kind is CommandKind.REFRESH:
            if self.bank != -1:
                raise ProtocolError("REF is all-bank; use bank=-1",
                                    bank=self.bank)
        elif self.bank < 0:
            raise ProtocolError("command needs a non-negative bank",
                                kind=self.kind.value, bank=self.bank)
        if self.row < 0 or self.column < 0 or self.pattern < 0:
            raise ProtocolError("row/column/pattern must be non-negative",
                                kind=self.kind.value, row=self.row,
                                column=self.column, pattern=self.pattern)
        if self.kind is CommandKind.MULTI_ROW_ACTIVATE:
            if len(self.rows) < 2 or len(self.rows) > 3:
                raise ProtocolError("MRA needs 2-3 source rows",
                                    rows=self.rows)
            if len(set(self.rows)) != len(self.rows):
                raise ProtocolError("MRA source rows must be distinct",
                                    rows=self.rows)
            if any(r < 0 for r in self.rows):
                raise ProtocolError("MRA source rows must be non-negative",
                                    rows=self.rows)
            if self.op not in MRA_OPS:
                raise ProtocolError("MRA op must be one of AND/OR/MAJ",
                                    op=self.op)
            if self.op == "MAJ" and len(self.rows) != 3:
                raise ProtocolError("MAJ requires exactly 3 source rows",
                                    rows=self.rows)
        elif self.kind is CommandKind.SHIFT:
            if self.amount <= 0:
                raise ProtocolError("SHIFT needs a positive amount",
                                    amount=self.amount)
            if self.op not in ("left", "right"):
                raise ProtocolError("SHIFT direction must be left/right",
                                    op=self.op)
        else:
            # The stock DDR kinds never carry compute fields; rejecting
            # them here keeps unset fields from silently passing.
            if self.rows or self.op or self.amount:
                raise ProtocolError(
                    "rows/op/amount are MRA/SHIFT-only fields",
                    kind=self.kind.value, rows=self.rows, op=self.op,
                    amount=self.amount)

    def __str__(self) -> str:
        if self.kind is CommandKind.ACTIVATE:
            return f"ACT(b{self.bank}, r{self.row})"
        if self.kind is CommandKind.PRECHARGE:
            return f"PRE(b{self.bank})"
        if self.kind is CommandKind.REFRESH:
            return "REF"
        if self.kind is CommandKind.MULTI_ROW_ACTIVATE:
            srcs = ",".join(f"r{r}" for r in self.rows)
            return f"MRA(b{self.bank}, {self.op}[{srcs}] -> r{self.row})"
        if self.kind is CommandKind.SHIFT:
            return f"SHIFT(b{self.bank}, r{self.row} {self.op} {self.amount})"
        return f"{self.kind.value}(b{self.bank}, c{self.column}, p{self.pattern})"


def activate(bank: int, row: int) -> Command:
    """ACTIVATE: open ``row`` in ``bank`` (copy it into the row buffer)."""
    return Command(CommandKind.ACTIVATE, bank=bank, row=row)


def precharge(bank: int) -> Command:
    """PRECHARGE: close the open row in ``bank``."""
    return Command(CommandKind.PRECHARGE, bank=bank)


def read(bank: int, column: int, pattern: int = 0) -> Command:
    """READ: burst one cache line from the open row at ``column``."""
    return Command(CommandKind.READ, bank=bank, column=column, pattern=pattern)


def write(bank: int, column: int, pattern: int = 0) -> Command:
    """WRITE: burst one cache line into the open row at ``column``."""
    return Command(CommandKind.WRITE, bank=bank, column=column, pattern=pattern)


def refresh() -> Command:
    """REFRESH: all-bank refresh (banks must be precharged)."""
    return Command(CommandKind.REFRESH, bank=-1)


def mra(bank: int, rows: tuple[int, ...], dest: int, op: str) -> Command:
    """MRA: latch ``op`` over ``rows`` into row ``dest`` of ``bank``."""
    return Command(CommandKind.MULTI_ROW_ACTIVATE, bank=bank, row=dest,
                   rows=tuple(rows), op=op)


def shift(bank: int, row: int, amount: int, direction: str = "left") -> Command:
    """SHIFT: shift row ``row`` of ``bank`` by ``amount`` bits in place."""
    return Command(CommandKind.SHIFT, bank=bank, row=row, amount=amount,
                   op=direction)
