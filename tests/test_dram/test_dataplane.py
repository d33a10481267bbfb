"""Differential tests of the row-array data plane.

The rank stores each (bank, row) as one ``(columns, chips, column_bytes)``
array, and a line access is one fancy index built from the scalar
``lane_map``. Two independent models check it:

- :class:`repro.check.oracle.MemoryOracle`, the flat-byte model that
  re-derives the gather rules from the paper, for every access it
  defines (pattern 0 anywhere, any pattern on shuffled pages);
- :class:`ScalarPlane` below, the per-chip scalar data plane (one
  ``lane_map`` per access, ascending row-index assembly, one dict entry
  per chip column), for custom shuffle functions and for patterned
  accesses to unshuffled pages.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.oracle import MemoryOracle
from repro.core.module import GSModule
from repro.core.shuffle import LSBShuffle, MaskedShuffle, NoShuffle, XorFoldShuffle
from repro.dram.address import Geometry, MappingPolicy
from repro.dram.module import DRAMModule
from repro.dram.rank import Rank
from repro.errors import AddressError, PatternError
from repro.mem.channels import MultiChannelModule
from repro.sim.system import read_memory, write_memory
from repro.utils.bitops import ilog2
from repro.vm.page_table import PageInfo, PageTable

#: (chips, pattern_bits, columns_per_row): 4, 8 and 16 chips, with
#: pattern IDs as wide as the chip ID and wider (Section 6.2).
GEOMETRIES = [(4, 2, 16), (4, 4, 16), (8, 3, 16), (8, 4, 16), (16, 4, 16)]


def make_module(chips, pattern_bits, columns, shuffle=None, policy=None):
    geometry = Geometry(
        chips=chips, banks=2, rows_per_bank=4, columns_per_row=columns
    )
    return GSModule(
        geometry=geometry,
        shuffle=shuffle,
        pattern_bits=pattern_bits,
        policy=policy or MappingPolicy.ROW_BANK_COLUMN,
    )


def row_pages(module, flags) -> PageTable:
    """A page table with one page per DRAM row, flagged from ``flags``."""
    g = module.geometry
    table = PageTable(page_bytes=g.row_bytes)
    for page, shuffled in enumerate(flags):
        table.map_range(page * g.row_bytes, g.row_bytes, PageInfo(shuffled=shuffled))
    return table


def memory_image(module) -> dict:
    """Every allocated row array, as bytes (unallocated rows are zeros)."""
    return {
        key: data.tobytes()
        for key, data in module.rank._rows.items()
        if data.any()
    }


class ScalarPlane:
    """The per-chip scalar data plane, as a reference for the row arrays."""

    def __init__(self, module: GSModule) -> None:
        self.module = module
        self.width = module.geometry.column_bytes
        self.columns: dict[tuple[int, int, int, int], bytes] = {}

    def _slots(self, address: int, pattern: int, shuffled: bool):
        loc = self.module.decode(address)
        if loc.offset:
            raise AddressError("unaligned")
        lanes = self.module.lane_map(loc.column, pattern, shuffled)
        order = sorted(range(len(lanes)), key=lambda chip: lanes[chip][2])
        if len({lanes[chip][2] for chip in order}) != len(order):
            raise PatternError("duplicate gather")
        return [(loc.bank, loc.row, chip, lanes[chip][0]) for chip in order]

    def read_line(self, address: int, pattern: int, shuffled: bool) -> bytes:
        zero = bytes(self.width)
        return b"".join(
            self.columns.get(slot, zero)
            for slot in self._slots(address, pattern, shuffled)
        )

    def write_line(self, address: int, data: bytes, pattern: int,
                   shuffled: bool) -> None:
        if len(data) != self.module.line_bytes:
            raise AddressError("length")
        for position, slot in enumerate(self._slots(address, pattern, shuffled)):
            self.columns[slot] = data[position * self.width:(position + 1) * self.width]

    def image(self) -> dict:
        """Same shape as :func:`memory_image`."""
        g = self.module.geometry
        rows: dict = {}
        for (bank, row, chip, column), value in self.columns.items():
            rows.setdefault((bank, row), bytearray(g.row_bytes))
            start = (column * g.chips + chip) * self.width
            rows[(bank, row)][start:start + self.width] = value
        return {key: bytes(data) for key, data in rows.items() if any(data)}


def per_line_write(module, pages, address: int, data: bytes) -> None:
    """Line-at-a-time read-modify-write: the reference for write_memory."""
    line_bytes = module.line_bytes
    position = 0
    while position < len(data):
        target = address + position
        base = target - target % line_bytes
        take = min(len(data) - position, line_bytes - (target - base))
        shuffled = pages.translate(base)[1]
        line = bytearray(module.read_line(base, 0, shuffled))
        line[target - base:target - base + take] = data[position:position + take]
        module.write_line(base, bytes(line), 0, shuffled)
        position += take


def outcome(call):
    """(result, None) or (None, exception type) of ``call()``."""
    try:
        return call(), None
    except (AddressError, PatternError) as exc:
        return None, type(exc)


def line_payload(geometry):
    return st.binary(min_size=geometry.line_bytes, max_size=geometry.line_bytes)


def region_strategy(capacity: int, line_bytes: int):
    """(address, length) with unaligned heads and tails, inside capacity."""
    return st.integers(0, capacity - 1).flatmap(
        lambda start: st.tuples(
            st.just(start), st.integers(1, min(capacity - start, 6 * line_bytes))
        )
    )


@pytest.mark.parametrize("chips,pattern_bits,columns", GEOMETRIES)
@settings(max_examples=25)
@given(data=st.data())
def test_interleavings_match_oracle(chips, pattern_bits, columns, data):
    stages = data.draw(st.integers(0, ilog2(chips)), "stages")
    module = make_module(chips, pattern_bits, columns, shuffle=LSBShuffle(stages))
    g = module.geometry
    flags = data.draw(st.lists(st.booleans(), min_size=8, max_size=8), "flags")
    pages = row_pages(module, flags)
    oracle = MemoryOracle(
        chips=chips, banks=g.banks, rows_per_bank=g.rows_per_bank,
        columns_per_row=columns, column_bytes=g.column_bytes,
        shuffle_stages=stages, pattern_bits=pattern_bits,
    )
    # Distinct random bytes everywhere, so any misplaced lane shows.
    seed = data.draw(st.integers(0, 2**32 - 1), "seed")
    image = np.random.default_rng(seed).bytes(g.capacity_bytes)
    write_memory(module, pages, 0, image)
    oracle.write(0, image)
    lines = g.capacity_bytes // g.line_bytes
    for _ in range(data.draw(st.integers(1, 12), "ops")):
        kind = data.draw(st.sampled_from(["read", "write", "rread", "rwrite"]))
        if kind in ("read", "write"):
            address = data.draw(st.integers(0, lines - 1)) * g.line_bytes
            shuffled = flags[address // g.row_bytes]
            pattern = data.draw(st.integers(0, (1 << pattern_bits) - 1))
            if not shuffled:
                pattern = 0  # the oracle gathers on shuffled pages only
            if kind == "read":
                got, error = outcome(
                    lambda: module.read_line(address, pattern, shuffled))
                reference = lambda: oracle.load(
                    address, g.line_bytes, pattern, shuffled)
            else:
                payload = data.draw(line_payload(g))
                got, error = outcome(
                    lambda: module.write_line(address, payload, pattern, shuffled))
                reference = lambda: oracle.store(address, payload, pattern, shuffled)
            if error is PatternError:
                # Too few distinct values: the oracle has no such check,
                # so it must be gathering some address twice.
                slots = oracle.gather_addresses(address, pattern)
                assert len(set(slots)) < len(slots)
                continue
            assert (got, error) == outcome(reference)
        else:
            address, length = data.draw(region_strategy(g.capacity_bytes, g.line_bytes))
            if kind == "rwrite":
                payload = data.draw(st.binary(min_size=length, max_size=length))
                write_memory(module, pages, address, payload)
                oracle.write(address, payload)
            else:
                assert read_memory(module, pages, address, length) == oracle.read(
                    address, length)
    assert read_memory(module, pages, 0, g.capacity_bytes) == oracle.read(
        0, g.capacity_bytes)
    # Every gather of one row, as the oracle defines them.
    row = data.draw(st.integers(0, len(flags) - 1), "row")
    patterns = range(1 << pattern_bits) if flags[row] else [0]
    for column in range(columns):
        address = row * g.row_bytes + column * g.line_bytes
        for pattern in patterns:
            got, error = outcome(lambda: module.read_line(address, pattern, flags[row]))
            if error is None:
                assert got == oracle.load(address, g.line_bytes, pattern, flags[row])


SHUFFLES = [
    pytest.param(8, lambda: MaskedShuffle(stages=3, stage_mask=0b101), id="masked"),
    pytest.param(8, lambda: XorFoldShuffle(stages=3), id="xorfold"),
    pytest.param(8, lambda: NoShuffle(), id="none"),
    pytest.param(8, lambda: LSBShuffle(stages=1), id="lsb1"),
    pytest.param(4, lambda: XorFoldShuffle(stages=2), id="xorfold-4chips"),
    pytest.param(16, lambda: MaskedShuffle(stages=4, stage_mask=0b0110),
                 id="masked-16chips"),
]


@pytest.mark.parametrize("chips,make_shuffle", SHUFFLES)
@pytest.mark.parametrize("policy", list(MappingPolicy))
@settings(max_examples=20)
@given(data=st.data())
def test_custom_shuffles_match_scalar_plane(chips, make_shuffle, policy, data):
    module = make_module(chips, 3, 16, shuffle=make_shuffle(), policy=policy)
    scalar = ScalarPlane(module)
    g = module.geometry
    lines = g.capacity_bytes // g.line_bytes
    for _ in range(data.draw(st.integers(1, 16), "ops")):
        address = data.draw(st.integers(0, lines - 1)) * g.line_bytes
        pattern = data.draw(st.integers(0, 7))
        shuffled = data.draw(st.booleans())
        if data.draw(st.booleans(), "write"):
            payload = data.draw(line_payload(g))
            got = outcome(
                lambda: module.write_line(address, payload, pattern, shuffled))
            want = outcome(
                lambda: scalar.write_line(address, payload, pattern, shuffled))
        else:
            got = outcome(lambda: module.read_line(address, pattern, shuffled))
            want = outcome(lambda: scalar.read_line(address, pattern, shuffled))
        assert got == want
    assert memory_image(module) == scalar.image()


@pytest.mark.parametrize("chips,make_shuffle", SHUFFLES)
def test_custom_shuffle_tables_follow_lane_map(chips, make_shuffle):
    module = make_module(chips, 3, 16, shuffle=make_shuffle())
    for column in range(16):
        for pattern in range(8):
            for shuffled in (False, True):
                lanes = module.lane_map(column, pattern, shuffled)
                order = sorted(range(chips), key=lambda chip: lanes[chip][2])
                if len({lane[2] for lane in lanes}) < chips:
                    with pytest.raises(PatternError):
                        module.line_table(column, pattern, shuffled)
                    continue
                table = module.line_table(column, pattern, shuffled)
                assert list(table.lanes) == lanes
                assert list(table.order) == order
                assert module.assembly_order(column, pattern, shuffled) == order


@pytest.mark.parametrize("chips,make_shuffle", SHUFFLES[:3])
@pytest.mark.parametrize("policy", list(MappingPolicy))
@settings(max_examples=20)
@given(data=st.data())
def test_region_path_matches_per_line_loop(chips, make_shuffle, policy, data):
    bulk = make_module(chips, 3, 16, shuffle=make_shuffle(), policy=policy)
    lines = make_module(chips, 3, 16, shuffle=make_shuffle(), policy=policy)
    g = bulk.geometry
    # Pages half a row long, so regions cross pages whose flag flips.
    pages = PageTable(page_bytes=g.row_bytes // 2)
    for page in range(2 * g.banks * g.rows_per_bank):
        shuffled = data.draw(st.booleans())
        pages.map_range(page * pages.page_bytes, pages.page_bytes,
                        PageInfo(shuffled=shuffled))
    for _ in range(data.draw(st.integers(1, 6), "regions")):
        address, length = data.draw(region_strategy(g.capacity_bytes, g.line_bytes))
        payload = data.draw(st.binary(min_size=length, max_size=length))
        write_memory(bulk, pages, address, payload)
        per_line_write(lines, pages, address, payload)
        assert memory_image(bulk) == memory_image(lines)
        assert read_memory(bulk, pages, address, length) == payload


def test_multichannel_region_matches_per_line_loop():
    bulk, lines = (
        MultiChannelModule([make_module(8, 3, 16) for _ in range(2)]) for _ in "ab"
    )
    pages = PageTable(page_bytes=512)
    for page in range(bulk.geometry.capacity_bytes // 512):
        pages.map_range(page * 512, 512, PageInfo(shuffled=page % 3 != 1))
    payload = np.random.default_rng(5).bytes(5000)
    write_memory(bulk, pages, 700, payload)
    per_line_write(lines, pages, 700, payload)
    for left, right in zip(bulk.channels, lines.channels):
        assert memory_image(left) == memory_image(right)
    assert read_memory(bulk, pages, 700, len(payload)) == payload
    with pytest.raises(AddressError):
        bulk.write_region(bulk.geometry.capacity_bytes - 8, bytes(16))


@pytest.mark.parametrize("policy", list(MappingPolicy))
def test_region_on_plain_module_matches_lines(policy):
    module = DRAMModule(Geometry(banks=2, rows_per_bank=4, columns_per_row=8),
                        policy=policy)
    payload = bytes(range(256)) * 3
    module.write_region(40, payload)
    lines = b"".join(module.read_line(base) for base in range(0, 896, 64))
    assert lines[40:40 + len(payload)] == payload
    assert lines[:40] == bytes(40)
    assert module.read_region(40, len(payload)) == payload


class TestErrorParity:
    """Each bad access raises the same type from the same call as before."""

    def gs(self, **kwargs):
        return make_module(8, 3, 16, **kwargs)

    def test_unaligned_addresses(self):
        for module in (self.gs(), DRAMModule(Geometry(banks=2, rows_per_bank=4))):
            with pytest.raises(AddressError):
                module.read_line(3)
            with pytest.raises(AddressError):
                module.write_line(65, bytes(64))
        with pytest.raises(AddressError):
            self.gs().constituents(8, 7)

    def test_out_of_range_coordinates(self):
        rank = Rank(chips=4, banks=2, rows_per_bank=4, columns_per_row=8)
        for call in (
            lambda: rank.read_line(2, 0, 0),
            lambda: rank.read_line(0, 4, 0),
            lambda: rank.read_line(0, 0, 8),
            lambda: rank.read_line(0, 0, -1),
            lambda: rank.write_line(-1, 0, 0, bytes(32)),
            lambda: rank.read_row(0, 4),
            lambda: rank.write_row(2, 0, bytes(rank.row_bytes)),
            lambda: rank.mra(0, (0, 4), 1, "AND"),
            lambda: rank.mra(3, (0, 1), 2, "OR"),
            lambda: rank.shift_row(0, 9, 1),
            lambda: rank.chips[0].read_column(0, 0, 8),
            lambda: rank.chips[1].write_column(0, 7, 0, bytes(8)),
        ):
            with pytest.raises(AddressError):
                call()
        assert rank.allocated_rows == 0
        module = self.gs()
        capacity = module.geometry.capacity_bytes
        for call in (
            lambda: module.read_line(capacity),
            lambda: module.read_line(-64),
            lambda: module.write_region(capacity - 8, bytes(16)),
            lambda: module.read_region(-1, 4),
        ):
            with pytest.raises(AddressError):
                call()

    def test_wrong_payload_length(self):
        rank = Rank(chips=4, banks=1, rows_per_bank=2, columns_per_row=4)
        for call in (
            lambda: self.gs().write_line(0, bytes(63)),
            lambda: DRAMModule().write_line(0, bytes(65)),
            lambda: rank.write_line(0, 0, 0, bytes(16)),
            lambda: rank.write_row(0, 0, bytes(rank.row_bytes - 1)),
            lambda: rank.chips[0].write_column(0, 0, 0, b"short"),
        ):
            with pytest.raises(AddressError):
                call()

    def test_nonzero_pattern_on_plain_rank(self):
        rank = Rank(chips=4, banks=1, rows_per_bank=2, columns_per_row=4)
        with pytest.raises(AddressError):
            rank.read_line(0, 0, 0, pattern=1)
        with pytest.raises(AddressError):
            rank.write_line(0, 0, 0, bytes(32), pattern=3)
        with pytest.raises(AddressError):
            DRAMModule().read_line(0, pattern=7)
        assert rank.allocated_rows == 0

    def test_bad_pattern_on_gs_module(self):
        module = self.gs()
        for pattern in (-1, 8):
            with pytest.raises(PatternError):
                module.read_line(0, pattern)

    def test_too_few_stages_gather_the_wrong_family_without_error(self):
        # Each chip still supplies a distinct row-buffer value, so the
        # access succeeds; gathers_correctly is what flags it.
        module = self.gs(shuffle=LSBShuffle(stages=1))
        assert module.read_line(0, pattern=7) == bytes(64)
        assert not module.gathers_correctly(7)
        assert module.gathers_correctly(1)

    def test_duplicate_gather_raises_on_every_call(self):
        # No shuffle function can make two chips supply the same value
        # (their value indices differ whenever their columns agree), so
        # a lane map that collapses lanes stands in for a broken one.
        class Collapsed(GSModule):
            def lane_map(self, column, pattern, shuffled=True):
                lanes = super().lane_map(column, pattern, shuffled)
                return [lanes[0]] * len(lanes) if pattern == 7 else lanes

        module = Collapsed(geometry=Geometry(chips=8, banks=2, rows_per_bank=4,
                                             columns_per_row=16))
        scalar = ScalarPlane(module)
        for _ in range(2):
            for call in (
                lambda: module.read_line(0, pattern=7),
                lambda: module.write_line(0, bytes(64), pattern=7),
                lambda: module.assembly_order(0, 7),
                lambda: module.constituents(0, 7),
                lambda: scalar.read_line(0, 7, True),
            ):
                with pytest.raises(PatternError):
                    call()
        assert not module.gathers_correctly(7)
        assert module.rank.allocated_rows == 0
        assert module.read_line(0, pattern=3) == bytes(64)


class TestLazyAllocation:
    """Rows come into being on first write, never on a read."""

    def test_reads_do_not_allocate(self):
        module = self.module()
        module.read_line(0)
        module.read_line(64, pattern=7)
        module.read_region(100, 5000, shuffled=True)
        module.rank.read_row(1, 3)
        module.rank.chips[3].read_column(0, 2, 5)
        assert module.rank.allocated_rows == 0

    def test_writes_allocate_per_row(self):
        module = self.module()
        module.write_line(0, bytes(64))
        module.write_line(64, bytes(64), pattern=7)
        module.rank.chips[5].write_column(1, 3, 0, bytes(8))
        assert module.rank.allocated_rows == 2
        module.write_region(module.geometry.row_bytes - 8, bytes(16), shuffled=True)
        assert module.rank.allocated_rows == 3

    def test_untouched_rows_read_as_zero(self):
        module = self.module()
        assert module.read_line(128, pattern=3) == bytes(64)
        assert module.rank.read_row(0, 1) == bytes(module.geometry.row_bytes)

    def test_chip_is_a_view_of_the_row_array(self):
        module = self.module()
        module.write_line(64, bytes(range(64)), shuffled=False)
        for chip in module.rank.chips:
            want = bytes(range(chip.chip_id * 8, chip.chip_id * 8 + 8))
            assert chip.read_column(0, 0, 1) == want
        assert module.rank.allocated_rows == 1

    @staticmethod
    def module():
        return make_module(8, 3, 16)


@settings(max_examples=40)
@given(
    row=st.binary(min_size=512, max_size=512),
    amount=st.one_of(st.integers(1, 64), st.sampled_from([8, 512, 4095, 4096, 5000])),
    direction=st.sampled_from(["left", "right"]),
)
def test_shift_row_is_a_bit_vector_shift(row, amount, direction):
    rank = Rank(chips=8, banks=1, rows_per_bank=2, columns_per_row=8)
    rank.write_row(0, 1, row)
    rank.shift_row(0, 1, amount, direction)
    bits = len(row) * 8
    value = int.from_bytes(row, "little")
    if direction == "left":
        value = (value << amount) & ((1 << bits) - 1)
    else:
        value >>= amount
    assert rank.read_row(0, 1) == value.to_bytes(len(row), "little")
