"""Tests for the functional DRAM chip."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dram.chip import Chip
from repro.dram.rank import Rank
from repro.errors import AddressError


def make_chip() -> Chip:
    return Rank(chips=1, banks=2, rows_per_bank=4, columns_per_row=8).chips[0]


class TestReadWrite:
    def test_untouched_reads_zero(self):
        assert make_chip().read_column(0, 0, 0) == bytes(8)

    def test_round_trip(self):
        chip = make_chip()
        chip.write_column(1, 2, 3, b"ABCDEFGH")
        assert chip.read_column(1, 2, 3) == b"ABCDEFGH"

    def test_columns_independent(self):
        chip = make_chip()
        chip.write_column(0, 0, 0, b"A" * 8)
        chip.write_column(0, 0, 1, b"B" * 8)
        assert chip.read_column(0, 0, 0) == b"A" * 8
        assert chip.read_column(0, 0, 1) == b"B" * 8

    def test_banks_independent(self):
        chip = make_chip()
        chip.write_column(0, 1, 1, b"X" * 8)
        assert chip.read_column(1, 1, 1) == bytes(8)

    @given(st.binary(min_size=8, max_size=8), st.integers(0, 7))
    def test_any_payload_round_trips(self, payload, column):
        chip = make_chip()
        chip.write_column(0, 0, column, payload)
        assert chip.read_column(0, 0, column) == payload


class TestValidation:
    def test_bank_out_of_range(self):
        with pytest.raises(AddressError):
            make_chip().read_column(2, 0, 0)

    def test_row_out_of_range(self):
        with pytest.raises(AddressError):
            make_chip().read_column(0, 4, 0)

    def test_column_out_of_range(self):
        with pytest.raises(AddressError):
            make_chip().write_column(0, 0, 8, bytes(8))

    def test_wrong_payload_size(self):
        with pytest.raises(AddressError):
            make_chip().write_column(0, 0, 0, b"short")


class TestLazyAllocation:
    def test_reads_do_not_allocate(self):
        chip = make_chip()
        chip.read_column(0, 0, 0)
        assert chip.allocated_rows == 0

    def test_writes_allocate_per_row(self):
        chip = make_chip()
        chip.write_column(0, 0, 0, bytes(8))
        chip.write_column(0, 0, 5, bytes(8))
        chip.write_column(1, 3, 0, bytes(8))
        assert chip.allocated_rows == 2
