"""Tests for observability sessions: attachment, envelopes, spec wiring."""

import pickle

import pytest

from repro.dram.commands import Command, CommandKind
from repro.errors import ConfigError
from repro.mem.profile import bandwidth_profile, row_locality
from repro.obs.session import ObsRun, ObsSession, current_session, observe
from repro.obs.tracer import command_events
from repro.perf.specs import RunSpec, cache_key, execute_spec
from repro.pim.executor import PIMExecutor
from repro.sim.config import SystemConfig
from repro.sim.system import System


def _tiny_config(**overrides):
    defaults = dict(l1_size=1024, l2_size=4096)
    defaults.update(overrides)
    return SystemConfig(**defaults)


GEMM_SPEC = RunSpec(kind="gemm", params={"variant": "naive", "n": 8}, seed=3)


class TestSessionLifecycle:
    def test_no_session_by_default(self):
        assert current_session() is None

    def test_observe_installs_and_restores(self):
        with observe() as outer:
            assert current_session() is outer
            with observe() as inner:
                assert current_session() is inner
            assert current_session() is outer
        assert current_session() is None

    def test_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with observe():
                raise RuntimeError("boom")
        assert current_session() is None


class TestAttachment:
    def test_system_registers_component_paths(self):
        with observe() as session:
            System(_tiny_config())
        paths = session.registry.paths()
        assert "cpu.core0" in paths
        assert "cache.l1.core0" in paths
        assert "cache.l2" in paths
        assert "mem.controller" in paths
        assert "mem.controller.queue_delay" in paths

    def test_second_system_is_namespaced(self):
        with observe() as session:
            System(_tiny_config())
            System(_tiny_config())
        paths = session.registry.paths()
        assert "mem.controller" in paths
        assert "sys1.mem.controller" in paths

    def test_tracer_installed_only_when_tracing(self):
        with observe() as session:
            system = System(_tiny_config())
        assert session.tracer is None
        assert system.engine.tracer is None
        with observe(trace=True) as session:
            system = System(_tiny_config())
        assert system.engine.tracer is session.tracer
        assert system.hierarchy.tracer is session.tracer
        assert system.controller.tracer is session.tracer

    def test_command_log_handed_out_only_when_tracing(self):
        with observe() as session:
            system = System(_tiny_config())
            executor = PIMExecutor(system.module)
        assert session.command_log is None
        assert system.controller.command_log is None
        assert executor.command_log is None
        with observe(trace=True) as session:
            single = System(_tiny_config())
            dual = System(_tiny_config(channels=2))
            executor = PIMExecutor(single.module)
        assert single.controller.command_log is session.command_log
        assert executor.command_log is session.command_log
        for controller in dual.controller.controllers:
            assert controller.command_log is session.command_log

    def test_prefetcher_registered_when_present(self):
        with observe() as session:
            System(_tiny_config(prefetch=True))
        assert "cache.prefetcher" in session.registry.paths()


class TestCommandLogProfiles:
    def test_empty_trace(self):
        # A traced session whose systems issue no command leaves an
        # empty log; the trace summaries must profile it to zero.
        with observe(trace=True) as session:
            System(_tiny_config())
        assert session.command_log == []
        assert bandwidth_profile(session.command_log).total_bytes == 0
        assert row_locality(session.command_log).mean_row_run == 0.0
        events, dropped = session.trace_events()
        assert not any(event["cat"] == "dram-command" for event in events)
        assert dropped == 0


class TestSpecIntegration:
    def test_obs_field_validated(self):
        with pytest.raises(ConfigError, match="unknown obs mode"):
            RunSpec(kind="gemm", obs="everything")

    def test_obs_field_changes_cache_key(self):
        import dataclasses

        traced = dataclasses.replace(GEMM_SPEC, obs="trace")
        assert cache_key(GEMM_SPEC) != cache_key(traced)

    def test_metrics_run_returns_envelope(self):
        import dataclasses

        record = execute_spec(dataclasses.replace(GEMM_SPEC, obs="metrics"))
        assert isinstance(record, ObsRun)
        assert record.verified
        assert record.result is not None and record.result.cycles > 0
        assert record.trace_events is None
        assert record.metrics.total("instructions", "cpu.") > 0
        assert record.metrics.total("cmd_RD", "mem.") > 0

    def test_traced_run_carries_events_and_pickles(self):
        import dataclasses

        record = execute_spec(dataclasses.replace(GEMM_SPEC, obs="trace"))
        assert record.trace_events
        categories = {event["cat"] for event in record.trace_events}
        assert "dram-command" in categories
        assert "controller" in categories
        assert sum(event["cat"] == "dram-command"
                   for event in record.trace_events) == len(record.command_log)
        restored = pickle.loads(pickle.dumps(record))
        assert restored.metrics.paths() == record.metrics.paths()
        assert len(restored.trace_events) == len(record.trace_events)
        assert restored.command_log == record.command_log

    def test_command_log_rendered_once_and_capped(self):
        session = ObsSession(trace=True, max_trace_events=3)
        session.tracer.instant("cache", "l1_miss", 0)
        session.command_log.extend(
            (cycle, Command(CommandKind.READ, 1, 2, cycle))
            for cycle in range(4)
        )
        events, dropped = session.trace_events()
        assert [event["cat"] for event in events] == [
            "cache", "dram-command", "dram-command"]
        assert dropped == 2
        assert events[1:] == command_events(session.command_log[:2])
        assert events[1]["tid"] == 1
        assert events[1]["args"] == {"bank": 1, "row": 2, "column": 0,
                                     "pattern": 0}

    def test_untraced_run_is_plain_record(self):
        record = execute_spec(GEMM_SPEC)
        assert not isinstance(record, ObsRun)

    def test_observed_and_plain_results_agree(self):
        import dataclasses

        plain = execute_spec(GEMM_SPEC)
        observed = execute_spec(dataclasses.replace(GEMM_SPEC, obs="trace"))
        assert observed.result.cycles == plain.result.cycles
        assert observed.result.instructions == plain.result.instructions


class TestSessionObject:
    def test_session_without_trace_has_no_tracer(self):
        assert ObsSession().tracer is None
        assert ObsSession(trace=True).tracer is not None
