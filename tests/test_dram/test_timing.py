"""Tests for DRAM timing parameter sets."""

import pytest

from repro.dram.timing import DEFAULT_CPU_PER_BUS, DRAMTiming, ddr3_1600, ddr4_2400
from repro.errors import ConfigError


class TestDDR3:
    def test_speed_bin(self):
        timing = ddr3_1600()
        assert timing.cl == 11
        assert timing.t_rcd == 11
        assert timing.t_rp == 11

    def test_trc_covers_tras_trp(self):
        timing = ddr3_1600()
        assert timing.t_rc >= timing.t_ras + timing.t_rp

    def test_row_miss_penalty(self):
        timing = ddr3_1600()
        assert timing.row_miss_penalty == timing.t_rp + timing.t_rcd + timing.cl

    def test_row_hit_latency(self):
        assert ddr3_1600().row_hit_latency == 11


class TestScaling:
    def test_scaled_multiplies_everything(self):
        base = ddr3_1600()
        scaled = base.scaled(5)
        assert scaled.cl == base.cl * 5
        assert scaled.t_rfc == base.t_rfc * 5

    def test_default_cpu_per_bus(self):
        # 4 GHz core / 800 MHz DDR3-1600 bus.
        assert DEFAULT_CPU_PER_BUS == 5

    def test_scale_factor_must_be_positive(self):
        with pytest.raises(ConfigError):
            ddr3_1600().scaled(0)


class TestValidation:
    def test_rejects_non_positive_parameter(self):
        with pytest.raises(ConfigError):
            DRAMTiming(
                cl=0, cwl=8, t_rcd=11, t_rp=11, t_ras=28, t_rc=39, t_bl=4,
                t_ccd=4, t_rrd=5, t_wr=12, t_wtr=6, t_rtp=6, t_faw=24,
                t_rfc=208, t_refi=6240,
            )

    def test_rejects_inconsistent_trc(self):
        with pytest.raises(ConfigError):
            DRAMTiming(
                cl=11, cwl=8, t_rcd=11, t_rp=11, t_ras=28, t_rc=30, t_bl=4,
                t_ccd=4, t_rrd=5, t_wr=12, t_wtr=6, t_rtp=6, t_faw=24,
                t_rfc=208, t_refi=6240,
            )


class TestDDR4:
    def test_faster_bus_higher_cycles(self):
        # DDR4-2400's CL in cycles exceeds DDR3-1600's (higher clock).
        assert ddr4_2400().cl > ddr3_1600().cl


class TestTFAW:
    def test_covers_four_trrd(self):
        # tFAW must be at least 4 * tRRD to be meaningful.
        timing = ddr3_1600()
        assert timing.t_faw >= 4 * timing.t_rrd

    def test_fifth_activate_waits(self):
        from repro.core.module import GSModule
        from repro.dram.address import Geometry
        from repro.mem.controller import MemoryController
        from repro.mem.request import MemoryRequest, RequestKind
        from repro.utils.events import Engine

        engine = Engine()
        module = GSModule(geometry=Geometry(banks=8, rows_per_bank=16,
                                            columns_per_row=16))
        controller = MemoryController(engine, module)
        controller.command_log = []
        # Five misses to five different banks: ACTs rate-limited by tFAW.
        for bank in range(5):
            controller.submit(
                MemoryRequest(module.mapping.encode(bank=bank, row=0, column=0),
                              RequestKind.READ)
            )
        engine.run()
        act_times = [time for time, cmd in controller.command_log
                     if cmd.kind.value == "ACT"]
        assert len(act_times) == 5
        assert act_times[4] - act_times[0] >= module.timing.t_faw


class TestComputeTiming:
    def test_mra_window_scales_with_fan_in(self):
        timing = ddr3_1600()
        assert timing.t_mra(2) == timing.t_ras + timing.t_rrd + timing.t_rp
        assert timing.t_mra(3) == timing.t_ras + 2 * timing.t_rrd + timing.t_rp

    def test_mra_fan_in_bounds(self):
        timing = ddr3_1600()
        with pytest.raises(ConfigError):
            timing.t_mra(1)
        with pytest.raises(ConfigError):
            timing.t_mra(4)

    def test_shift_window_scales_with_stages(self):
        timing = ddr3_1600()
        assert timing.t_shift(1) == timing.t_rcd + timing.t_ccd + timing.t_rp
        assert timing.t_shift(4) == timing.t_rcd + 4 * timing.t_ccd + timing.t_rp

    def test_shift_needs_a_stage(self):
        with pytest.raises(ConfigError):
            ddr3_1600().t_shift(0)

    def test_compute_windows_scale_with_bus_ratio(self):
        base = ddr3_1600()
        assert base.scaled(5).t_mra(2) == base.t_mra(2) * 5
        assert base.scaled(5).t_shift(2) == base.t_shift(2) * 5
