"""FastSystem: compatibility gate, event-equivalence, observability."""

import pytest

from repro.check.fastpath import fast_configs, run_trace_equivalence
from repro.cpu.isa import Compute, Load, Store
from repro.errors import ConfigError
from repro.obs import observe
from repro.sim.config import Mechanism, impulse_config, table1_config
from repro.sim.system import System
from repro.vec.fastpath import FastSystem
from repro.vec.hier import assert_fast_compatible, fast_supported

SMALL = dict(l1_size=1024, l1_assoc=2, l2_size=4096, l2_assoc=4)


class TestCompatibilityGate:
    def test_table1_is_supported(self):
        config = table1_config()
        assert_fast_compatible(config)
        assert fast_supported(config)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"cores": 2},
            {"channels": 2},
            {"prefetch": True},
            {"store_buffer": 4},
            {"refresh": True},
            {"open_row_policy": False},
            {"auto_pattern": True},
        ],
    )
    def test_unsupported_features_rejected(self, overrides):
        config = table1_config(**overrides)
        assert not fast_supported(config)
        with pytest.raises(ConfigError):
            assert_fast_compatible(config)

    def test_impulse_rejected(self):
        config = impulse_config()
        assert config.mechanism is Mechanism.IMPULSE
        assert not fast_supported(config)

    def test_constructor_enforces_gate(self):
        with pytest.raises(ConfigError):
            FastSystem(table1_config(cores=2))

    def test_gate_reports_every_problem(self):
        with pytest.raises(ConfigError) as info:
            assert_fast_compatible(table1_config(cores=2, prefetch=True))
        assert "cores" in str(info.value)
        assert "prefetch" in str(info.value)


class TestEventEquivalence:
    def test_mixed_workload_bit_identical(self):
        config = table1_config(**SMALL)

        def execute(system):
            base = system.pattmalloc(64 * 64, shuffle=True, pattern=7)
            import struct

            system.mem_write(base, struct.pack("<512Q", *range(512)))
            loaded = []

            def ops():
                for i in range(0, 512, 8):
                    yield Load(base + i * 8, pattern=7,
                               on_value=loaded.append)
                    yield Compute(1)
                yield Store(base + 64, b"\xaa" * 8)
                for i in range(16):
                    yield Load(base + i * 64, on_value=loaded.append)

            result = system.run([ops()])
            return result, loaded, system.mem_read(base, 64 * 64)

        event_result, event_loaded, event_image = execute(System(config))
        fast_result, fast_loaded, fast_image = execute(FastSystem(config))

        assert event_loaded == fast_loaded
        assert event_image == fast_image
        for name in ("instructions", "loads", "stores", "l1_hits",
                     "l1_misses", "l2_hits", "l2_misses", "dram_reads",
                     "dram_writes", "row_hits", "row_misses", "writebacks"):
            assert getattr(event_result, name) == getattr(fast_result, name), name

    def test_fast_path_reports_zero_cycles(self):
        config = table1_config(**SMALL)
        system = FastSystem(config)
        base = system.malloc(1024)
        result = system.run([[Load(base), Compute(4)]])
        assert result.cycles == 0
        assert result.extra["fast_path"] == 1.0

    def test_random_trace_battery_small(self):
        configs = fast_configs()
        assert len(configs) >= 3
        report = run_trace_equivalence(
            traces_per_config=1, seed=1234, max_ops=24, configs=configs[:2]
        )
        assert report.ok, report.render()
        assert report.runs == 2


class TestObservability:
    def test_fast_system_registers_snapshots(self):
        with observe() as session:
            config = table1_config(**SMALL)
            system = FastSystem(config)
            base = system.malloc(4096)
            system.run([[Load(base + i * 64) for i in range(32)]])
            snapshot = session.snapshot()
        assert snapshot.get("cpu.core0", "loads") == 32
        assert snapshot.get("mem.controller", "requests") == snapshot.get(
            "cache.l2", "misses"
        )
        assert "cache.l1.core0" in snapshot.paths()
        assert "mem.controller.queue_delay" in snapshot.histograms

    def test_snapshot_matches_event_after_readback(self):
        """Registry counters equal the event machine's, including the
        DBI cleans that ``mem_read``'s drain of dirty lines adds."""
        config = table1_config(**SMALL)

        def snapshot(system_cls):
            with observe() as session:
                system = system_cls(config)
                base = system.pattmalloc(4096, shuffle=True, pattern=7)
                system.run([[Store(base + i * 64, b"\x01" * 8)
                             for i in range(24)]])
                system.mem_read(base, 4096)
                return session.snapshot()

        event, fast = snapshot(System), snapshot(FastSystem)
        assert fast.get("cache.dbi", "cleans") > 0
        for path in ("cache.l1.core0", "cache.l2", "cache.hierarchy",
                     "cache.dbi", "mem.controller"):
            assert fast.counters.get(path) == event.counters.get(path), path
