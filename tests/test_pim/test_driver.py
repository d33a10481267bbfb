"""Tests for the GS-vs-PIM ablation driver (repro.pim.driver)."""

import dataclasses
from collections import Counter

import pytest

from repro.dram.commands import CommandKind
from repro.errors import ConfigError
from repro.harness.common import QUICK
from repro.harness.specsets import figure_specs
from repro.obs import observe
from repro.perf.specs import RunSpec, execute_spec
from repro.pim.driver import run_pim

TUPLES = 256


@pytest.fixture(scope="module")
def quadrants():
    """All four (workload, variant) pairs in both modes, one table."""
    return {
        (workload, variant, mode): run_pim(
            workload, variant, mode=mode, num_tuples=TUPLES
        )
        for workload in ("sum", "filter")
        for variant in ("gs", "pim")
        for mode in ("event", "fast")
    }


class TestQuadrants:
    def test_every_run_verifies(self, quadrants):
        assert all(run.verified for run in quadrants.values())

    @pytest.mark.parametrize("workload", ["sum", "filter"])
    def test_variants_agree_on_the_answer(self, quadrants, workload):
        answers = {
            quadrants[(workload, variant, mode)].answer
            for variant in ("gs", "pim")
            for mode in ("event", "fast")
        }
        assert len(answers) == 1

    @pytest.mark.parametrize("workload", ["sum", "filter"])
    @pytest.mark.parametrize("variant", ["gs", "pim"])
    def test_modes_agree_on_the_memory_image(self, quadrants, workload,
                                             variant):
        event = quadrants[(workload, variant, "event")]
        fast = quadrants[(workload, variant, "fast")]
        assert event.memory_digest == fast.memory_digest
        assert event.result.memory_accesses == fast.result.memory_accesses

    def test_event_runs_have_cycles_fast_runs_do_not(self, quadrants):
        for (_, _, mode), run in quadrants.items():
            if mode == "event":
                assert run.cycles > 0
                assert run.work_proxy == run.cycles
            else:
                assert run.cycles == 0
                assert run.work_proxy == run.result.memory_accesses

    def test_filter_moves_less_data(self, quadrants):
        # The mask readback is 1 line; the gather moves tuples/8 lines.
        gs = quadrants[("filter", "gs", "event")]
        pim = quadrants[("filter", "pim", "event")]
        assert pim.result.memory_accesses < gs.result.memory_accesses

    def test_sum_readback_is_per_slice_not_per_tuple(self, quadrants):
        # Sum readback cost scales with bit width (one line per
        # accumulator slice), not with the tuple count — the reason
        # its traffic win only appears at larger tables.
        pim = quadrants[("sum", "pim", "event")]
        assert pim.result.memory_accesses < 64  # ~width lines, not 256/8

    def test_pim_run_records_command_mix(self, quadrants):
        run = quadrants[("sum", "pim", "event")]
        assert run.result.extra["cmd_MRA2"] > 0
        assert run.result.extra["cmd_MRA3"] > 0
        assert run.result.extra["cmd_SHIFT"] > 0
        assert run.result.mechanism == "pim"
        stats = run.component_stats["pim"]
        assert stats["cmd_MRA3"] == run.result.extra["cmd_MRA3"]

    def test_pim_energy_counts_compute_commands(self, quadrants):
        run = quadrants[("filter", "pim", "event")]
        assert run.result.energy.dram.dynamic_mj > 0

    def test_params_record_threshold(self, quadrants):
        run = quadrants[("filter", "pim", "event")]
        assert run.params["threshold"] > 0
        assert run.params["num_tuples"] == TUPLES


class TestValidation:
    def test_unknown_workload(self):
        with pytest.raises(ConfigError):
            run_pim("median", "gs")

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            run_pim("sum", "cpu")

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            run_pim("sum", "gs", mode="warp")


class TestSpecDispatch:
    def test_execute_spec_round_trip(self):
        spec = RunSpec(
            kind="pim",
            params={"workload": "filter", "variant": "pim",
                    "num_tuples": TUPLES},
            seed=1,
            mode="fast",
        )
        run = execute_spec(spec)
        assert run.verified
        assert (run.workload, run.variant, run.mode) == ("filter", "pim",
                                                         "fast")
        assert run.params["seed"] == 1


def _log_counts(log) -> Counter:
    """Per-stat command counts of a log (MRA split by fan-in)."""
    return Counter(
        f"cmd_MRA{len(command.rows)}"
        if command.kind is CommandKind.MULTI_ROW_ACTIVATE
        else command.kind.stat
        for _, command in log
    )


class TestCommandLog:
    @pytest.mark.parametrize("workload", ["sum", "filter"])
    def test_log_counts_match_executor_stats(self, workload):
        with observe(trace=True) as session:
            run = run_pim(workload, "pim", mode="event", num_tuples=TUPLES)
        stats = run.component_stats["pim"]
        counts = _log_counts(session.command_log)
        for key in ("cmd_MRA2", "cmd_MRA3", "cmd_SHIFT", "cmd_ACT",
                    "cmd_RD", "cmd_PRE"):
            assert counts[key] == stats.get(key, 0), key
        assert counts["cmd_MRA2"] + counts["cmd_MRA3"] > 0
        assert counts["cmd_RD"] > 0

    def test_commands_stamped_at_issue(self):
        with observe(trace=True) as session:
            run = run_pim("sum", "pim", mode="event", num_tuples=TUPLES)
        cycles = [cycle for cycle, _ in session.command_log]
        # The first command issues at cycle 0; the last completes
        # (run.result.cycles) strictly after it issues.
        assert cycles[0] == 0
        assert max(cycles) < run.result.cycles

    def test_untimed_mode_stamps_zero(self):
        with observe(trace=True) as session:
            run_pim("sum", "pim", mode="fast", num_tuples=TUPLES)
        assert session.command_log
        assert {cycle for cycle, _ in session.command_log} == {0}

    def test_traced_quick_spec_exports_mra_and_shift(self):
        [spec] = [spec for spec in figure_specs("pim", QUICK)
                  if spec.params["variant"] == "pim"
                  and spec.params["workload"] == "sum"]
        record = execute_spec(dataclasses.replace(spec, obs="trace"))
        names = {event["name"] for event in record.trace_events
                 if event["cat"] == "dram-command"}
        assert {"MRA", "SHIFT", "ACT", "RD", "PRE"} <= names
