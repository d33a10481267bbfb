"""Tests for command-log profiling."""

import pytest

from repro.core.module import GSModule
from repro.dram.address import Geometry
from repro.dram.commands import activate, precharge, read, write
from repro.mem.controller import MemoryController
from repro.mem.profile import bandwidth_profile, row_locality
from repro.mem.request import MemoryRequest, RequestKind
from repro.utils.events import Engine


class TestBandwidthProfile:
    def test_empty_trace(self):
        profile = bandwidth_profile([])
        assert profile.total_bytes == 0
        assert profile.peak_bytes_per_cycle == 0.0
        assert profile.busiest_bucket() == -1

    def test_bucketing(self):
        trace = [
            (100, read(0, 0)),
            (200, read(0, 1)),
            (1500, write(0, 2)),
            (1600, activate(0, 1)),  # not data traffic
        ]
        profile = bandwidth_profile(trace, bucket_cycles=1000)
        assert profile.buckets == [128, 64]
        assert profile.total_bytes == 192
        assert profile.busiest_bucket() == 0

    def test_utilization(self):
        trace = [(i * 20, read(0, i)) for i in range(50)]  # back-to-back
        profile = bandwidth_profile(trace, bucket_cycles=1000)
        # 64 bytes per 20 cycles = 3.2 B/cyc = 100% of DDR3-1600 peak.
        assert profile.utilization(3.2) == pytest.approx(1.0, rel=0.1)

    def test_average(self):
        trace = [(0, read(0, 0)), (1999, read(0, 1))]
        profile = bandwidth_profile(trace, bucket_cycles=1000)
        assert profile.average_bytes_per_cycle() == pytest.approx(128 / 2000)

    def test_unsorted_trace(self):
        # Regression: sizing buckets from trace[-1] crashed on merged
        # multi-controller traces, whose entries are not time-sorted.
        trace = [(1999, read(0, 1)), (0, read(0, 0)), (500, write(0, 2))]
        profile = bandwidth_profile(trace, bucket_cycles=1000)
        assert profile.buckets == [128, 64]
        assert profile.total_bytes == 192


class TestRowLocality:
    def test_counts_runs(self):
        trace = [
            (0, activate(0, 1)),
            (10, read(0, 0)),
            (20, read(0, 1)),
            (30, precharge(0)),
            (40, activate(0, 2)),
            (50, read(0, 0)),
        ]
        locality = row_locality(trace)
        assert locality.activates_per_bank[0] == 2
        assert locality.columns_per_activate[0] == pytest.approx(1.5)

    def test_reads_and_writes_extend_one_run(self):
        trace = [
            (0, activate(0, 1)),
            (100, read(0, 0)),
            (200, read(0, 1)),
            (1500, write(0, 2)),
        ]
        assert row_locality(trace).mean_row_run == pytest.approx(3.0)

    def test_mean_row_run_empty(self):
        assert row_locality([]).mean_row_run == 0.0

    def test_mean_row_run_weights_by_run_count(self):
        # Regression: the mean averaged per-bank means, so a bank with
        # one long run counted as much as a bank with many short ones.
        trace = [
            (0, activate(0, 1)), (1, read(0, 0)),
            (2, precharge(0)),
            (3, activate(0, 2)), (4, read(0, 0)),
            (5, activate(1, 1)),
            (6, read(1, 0)), (7, read(1, 1)), (8, read(1, 2)), (9, read(1, 3)),
        ]
        locality = row_locality(trace)
        assert locality.runs_per_bank == {0: 2, 1: 1}
        # Runs are 1, 1, 4 columns: mean 2.0, not (1.0 + 4.0) / 2 = 2.5.
        assert locality.mean_row_run == pytest.approx(2.0)

    def test_warm_row_columns_are_not_a_run(self):
        # Regression: column commands before a bank's first recorded
        # ACTIVATE (a row left open before tracing began) were emitted
        # as a run, crediting locality no recorded activate produced.
        trace = [
            (0, read(0, 0)), (1, read(0, 1)),  # warm-row hits
            (2, precharge(0)),
            (3, activate(0, 2)), (4, read(0, 0)),
        ]
        locality = row_locality(trace)
        assert locality.runs_per_bank == {0: 1}
        assert locality.mean_row_run == pytest.approx(1.0)


class TestEndToEnd:
    def _trace_for(self, addresses):
        engine = Engine()
        module = GSModule(geometry=Geometry(banks=4, rows_per_bank=16,
                                            columns_per_row=32))
        controller = MemoryController(engine, module)
        controller.command_log = []
        for address in addresses:
            controller.submit(MemoryRequest(address, RequestKind.READ))
        engine.run()
        return controller.command_log

    def test_streaming_scan_has_long_row_runs(self):
        trace = self._trace_for([i * 64 for i in range(32)])
        locality = row_locality(trace)
        assert locality.mean_row_run == pytest.approx(32.0)

    def test_row_thrashing_has_short_runs(self):
        # Alternate between two rows of bank 0, one request at a time
        # (a batched queue would let FR-FCFS reorder into row runs).
        geometry = Geometry(banks=4, rows_per_bank=16, columns_per_row=32)
        engine = Engine()
        module = GSModule(geometry=geometry)
        controller = MemoryController(engine, module)
        controller.command_log = []
        row_bytes = geometry.row_bytes
        for i in range(8):
            controller.submit(
                MemoryRequest((i % 2) * 4 * row_bytes, RequestKind.READ)
            )
            engine.run()
        locality = row_locality(controller.command_log)
        assert locality.mean_row_run <= 1.5
        assert locality.activates_per_bank[0] >= 7

    def test_frfcfs_reorders_batched_thrash_into_runs(self):
        # The same eight requests submitted together: FR-FCFS groups the
        # row hits, shown directly by the locality profile.
        geometry = Geometry(banks=4, rows_per_bank=16, columns_per_row=32)
        row_bytes = geometry.row_bytes
        trace = self._trace_for([(i % 2) * 4 * row_bytes for i in range(8)])
        locality = row_locality(trace)
        assert locality.mean_row_run == pytest.approx(4.0)
        assert locality.activates_per_bank[0] == 2

    def test_gs_scan_uses_less_bandwidth(self):
        # Pattern-7 gathers: 1/8 the transfers of a full sweep.
        plain = bandwidth_profile(self._trace_for([i * 64 for i in range(32)]))
        engine = Engine()
        module = GSModule(geometry=Geometry(banks=4, rows_per_bank=16,
                                            columns_per_row=32))
        controller = MemoryController(engine, module)
        controller.command_log = []
        for group in range(4):
            controller.submit(MemoryRequest(group * 8 * 64, RequestKind.READ,
                                            pattern=7))
        engine.run()
        gathered = bandwidth_profile(controller.command_log)
        assert gathered.total_bytes == plain.total_bytes // 8
