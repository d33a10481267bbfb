"""Tests for DRAM command types and the controller's command trace."""

import pytest

from repro.core.module import GSModule
from repro.dram.address import Geometry
from repro.dram.commands import (
    Command,
    CommandKind,
    activate,
    mra,
    precharge,
    read,
    refresh,
    shift,
    write,
)
from repro.errors import ProtocolError
from repro.mem.controller import MemoryController
from repro.mem.request import MemoryRequest, RequestKind
from repro.utils.events import Engine


class TestConstructors:
    def test_activate(self):
        cmd = activate(2, 17)
        assert cmd.kind is CommandKind.ACTIVATE
        assert (cmd.bank, cmd.row) == (2, 17)

    def test_read_with_pattern(self):
        cmd = read(1, 5, pattern=7)
        assert cmd.kind is CommandKind.READ
        assert cmd.pattern == 7

    def test_write(self):
        assert write(0, 3).kind is CommandKind.WRITE

    def test_precharge(self):
        assert precharge(4).bank == 4

    def test_refresh(self):
        assert refresh().kind is CommandKind.REFRESH

    def test_str_forms(self):
        assert str(activate(1, 2)) == "ACT(b1, r2)"
        assert str(read(0, 5, 7)) == "RD(b0, c5, p7)"
        assert str(precharge(3)) == "PRE(b3)"
        assert str(refresh()) == "REF"

    def test_frozen(self):
        cmd = read(0, 0)
        try:
            cmd.bank = 1
            raised = False
        except AttributeError:
            raised = True
        assert raised


class TestCommandTrace:
    def test_trace_records_full_sequence(self):
        engine = Engine()
        module = GSModule(geometry=Geometry(banks=2, rows_per_bank=8,
                                            columns_per_row=16))
        controller = MemoryController(engine, module)
        controller.command_log = []
        controller.submit(MemoryRequest(0, RequestKind.READ, pattern=7))
        engine.run()
        kinds = [command.kind for _, command in controller.command_log]
        assert kinds == [CommandKind.ACTIVATE, CommandKind.READ]
        _, read_cmd = controller.command_log[-1]
        assert read_cmd.pattern == 7
        assert read_cmd.column == 0

    def test_trace_includes_precharge_on_conflict(self):
        engine = Engine()
        geometry = Geometry(banks=2, rows_per_bank=8, columns_per_row=16)
        module = GSModule(geometry=geometry)
        controller = MemoryController(engine, module)
        controller.command_log = []
        controller.submit(MemoryRequest(0, RequestKind.READ))
        engine.run()
        conflict = module.mapping.encode(bank=0, row=1, column=0)
        controller.submit(MemoryRequest(conflict, RequestKind.READ))
        engine.run()
        kinds = [command.kind for _, command in controller.command_log]
        assert kinds == [
            CommandKind.ACTIVATE, CommandKind.READ,
            CommandKind.PRECHARGE, CommandKind.ACTIVATE, CommandKind.READ,
        ]

    def test_trace_times_monotonic(self):
        engine = Engine()
        module = GSModule(geometry=Geometry(banks=2, rows_per_bank=8,
                                            columns_per_row=16))
        controller = MemoryController(engine, module)
        controller.command_log = []
        for i in range(6):
            controller.submit(MemoryRequest(i * 64, RequestKind.READ))
        engine.run()
        times = [time for time, _ in controller.command_log]
        assert times == sorted(times)


class TestComputeConstructors:
    def test_mra_fields(self):
        cmd = mra(2, (10, 11, 12), 5, "MAJ")
        assert cmd.kind is CommandKind.MULTI_ROW_ACTIVATE
        assert (cmd.bank, cmd.rows, cmd.row, cmd.op) == (2, (10, 11, 12), 5, "MAJ")

    def test_mra_accepts_list_rows(self):
        assert mra(0, [1, 2], 3, "AND").rows == (1, 2)

    def test_shift_fields(self):
        cmd = shift(1, 7, 4, "right")
        assert cmd.kind is CommandKind.SHIFT
        assert (cmd.bank, cmd.row, cmd.amount, cmd.op) == (1, 7, 4, "right")

    def test_shift_defaults_left(self):
        assert shift(0, 0, 1).op == "left"

    def test_str_forms(self):
        assert str(mra(0, (1, 2), 3, "AND")) == "MRA(b0, AND[r1,r2] -> r3)"
        assert str(shift(2, 9, 3, "right")) == "SHIFT(b2, r9 right 3)"


class TestComputeValidation:
    def test_mra_needs_at_least_two_rows(self):
        with pytest.raises(ProtocolError):
            mra(0, (1,), 2, "AND")

    def test_mra_rejects_four_rows(self):
        with pytest.raises(ProtocolError):
            mra(0, (1, 2, 3, 4), 5, "OR")

    def test_mra_rejects_duplicate_rows(self):
        with pytest.raises(ProtocolError):
            mra(0, (1, 1), 2, "AND")

    def test_mra_rejects_negative_rows(self):
        with pytest.raises(ProtocolError):
            mra(0, (-1, 2), 3, "AND")

    def test_mra_rejects_unknown_op(self):
        with pytest.raises(ProtocolError):
            mra(0, (1, 2), 3, "XOR")

    def test_maj_requires_exactly_three_rows(self):
        with pytest.raises(ProtocolError):
            mra(0, (1, 2), 3, "MAJ")

    def test_shift_rejects_zero_amount(self):
        with pytest.raises(ProtocolError):
            shift(0, 1, 0)

    def test_shift_rejects_negative_amount(self):
        with pytest.raises(ProtocolError):
            shift(0, 1, -3)

    def test_shift_rejects_unknown_direction(self):
        with pytest.raises(ProtocolError):
            shift(0, 1, 2, "up")


class TestStockKindAudit:
    """Unset MRA/SHIFT fields must not silently pass on stock kinds."""

    def test_stock_kinds_reject_rows(self):
        with pytest.raises(ProtocolError):
            Command(CommandKind.ACTIVATE, bank=0, row=1, rows=(1, 2))

    def test_stock_kinds_reject_op(self):
        with pytest.raises(ProtocolError):
            Command(CommandKind.READ, bank=0, op="AND")

    def test_stock_kinds_reject_amount(self):
        with pytest.raises(ProtocolError):
            Command(CommandKind.WRITE, bank=0, amount=1)

    def test_refresh_must_be_bankless(self):
        with pytest.raises(ProtocolError):
            Command(CommandKind.REFRESH, bank=0)

    def test_negative_bank_rejected(self):
        with pytest.raises(ProtocolError):
            Command(CommandKind.ACTIVATE, bank=-1, row=1)

    def test_negative_row_rejected(self):
        with pytest.raises(ProtocolError):
            Command(CommandKind.ACTIVATE, bank=0, row=-1)
