"""Timing legality of recorded DRAM command logs.

The checker below re-derives the DDR constraints from the scaled
``DRAMTiming`` and ``cpu_per_bus`` alone: it shares no code with the
bank state machine or the controller that produced the log, so a
window the timing model forgets to enforce shows up here as a
violation. Covered: same-bank tRCD, tRAS, tRC, tRP, tRTP; MRA/SHIFT
bank occupancy of ``t_mra(k)``/``t_shift(bit_length(amount))``; and
one command per ``cpu_per_bus`` cycles on the (single-channel) command
bus. tFAW, tWTR, tWR and refresh are not checked here.
"""

import dataclasses
import random

import pytest

from repro.cpu.isa import Load
from repro.dram import commands
from repro.dram.commands import CommandKind
from repro.dram.timing import ddr3_1600
from repro.harness.patternscan import pattern_sweep_specs
from repro.obs.session import observe
from repro.perf.specs import execute_spec
from repro.pim.driver import run_pim
from repro.sim.config import SystemConfig
from repro.sim.system import System

CPU_PER_BUS = SystemConfig().cpu_per_bus
TIMING = ddr3_1600().scaled(CPU_PER_BUS)

ACT = CommandKind.ACTIVATE
PRE = CommandKind.PRECHARGE
COLUMN = (CommandKind.READ, CommandKind.WRITE)
COMPUTE = (CommandKind.MULTI_ROW_ACTIVATE, CommandKind.SHIFT)


def timing_violations(log, timing=TIMING, cpu_per_bus=CPU_PER_BUS):
    """Every timing rule the ``(cycle, Command)`` log breaks."""
    ordered = sorted(log, key=lambda entry: entry[0])
    problems = []
    for (before, _), (after, command) in zip(ordered, ordered[1:]):
        if after - before < cpu_per_bus:
            problems.append(f"bus: {command} at {after}, previous at {before}")

    last_act: dict[int, int] = {}
    last_pre: dict[int, int] = {}
    last_read: dict[int, int] = {}
    busy_until: dict[int, int] = {}

    def gap(name, bank, since, now, need):
        if since is not None and now - since < need:
            problems.append(f"{name}: bank {bank} {now - since} < {need} "
                            f"cycles (at {now})")

    for now, command in ordered:
        bank, kind = command.bank, command.kind
        if bank < 0:
            continue  # all-bank REF: refresh is not checked here
        if now < busy_until.get(bank, 0):
            problems.append(f"occupancy: {command} at {now} inside an "
                            f"in-DRAM op ending at {busy_until[bank]}")
        if kind is ACT or kind in COMPUTE:
            gap("tRC", bank, last_act.get(bank), now, timing.t_rc)
            gap("tRP", bank, last_pre.get(bank), now, timing.t_rp)
        if kind is ACT:
            last_act[bank] = now
            last_read.pop(bank, None)
        elif kind in COLUMN:
            gap("tRCD", bank, last_act.get(bank), now, timing.t_rcd)
            if kind is CommandKind.READ:
                last_read[bank] = now
        elif kind is PRE:
            gap("tRAS", bank, last_act.get(bank), now, timing.t_ras)
            gap("tRTP", bank, last_read.get(bank), now, timing.t_rtp)
            last_pre[bank] = now
        elif kind is CommandKind.MULTI_ROW_ACTIVATE:
            busy_until[bank] = now + timing.t_mra(len(command.rows))
        elif kind is CommandKind.SHIFT:
            busy_until[bank] = now + timing.t_shift(command.amount.bit_length())
    return problems


def _traced_log(spec):
    return execute_spec(dataclasses.replace(spec, obs="trace")).command_log


class TestCheckerCatchesViolations:
    """The checker itself flags each rule it claims to cover."""

    def _log(self, *entries):
        return [(cycle, getattr(commands, name)(*args))
                for cycle, name, args in entries]

    def test_legal_sequence_is_clean(self):
        t = TIMING
        log = self._log(
            (0, "activate", (0, 1)),
            (t.t_rcd, "read", (0, 0)),
            (t.t_ras, "precharge", (0,)),
            (t.t_rc, "activate", (0, 2)),
        )
        assert timing_violations(log) == []

    @pytest.mark.parametrize("name, entries", [
        ("tRCD", [(0, "activate", (0, 1)), (TIMING.t_rcd - 1, "read", (0, 0))]),
        ("tRAS", [(0, "activate", (0, 1)), (TIMING.t_ras - 1, "precharge", (0,))]),
        ("tRTP", [(0, "activate", (0, 1)),
                  (TIMING.t_ras - 1, "read", (0, 0)),
                  (TIMING.t_ras, "precharge", (0,))]),
        ("tRP", [(0, "activate", (0, 1)), (TIMING.t_ras, "precharge", (0,)),
                 (TIMING.t_ras + TIMING.t_rp - 1, "activate", (0, 2))]),
        ("occupancy", [(0, "shift", (0, 1, 1)),
                       (TIMING.t_shift(1) - 1, "activate", (0, 2))]),
        ("tRC", [(0, "activate", (0, 1)), (TIMING.t_rc - 1, "activate", (0, 2))]),
        ("bus", [(0, "activate", (0, 1)), (CPU_PER_BUS - 1, "activate", (1, 1))]),
    ])
    def test_each_rule_fires(self, name, entries):
        problems = timing_violations(self._log(*entries))
        assert name in {problem.split(":")[0] for problem in problems}, problems


class TestRecordedRunsAreLegal:
    def test_fig7_gathered_stride8_point(self):
        [spec] = [spec for spec in pattern_sweep_specs(lines=256)
                  if spec.params == {"variant": "gathered", "stride": 8,
                                     "lines": 256}]
        log = _traced_log(spec)
        assert any(command.kind in COLUMN for _, command in log)
        assert timing_violations(log) == []

    def test_timed_pim_sum(self):
        with observe(trace=True) as session:
            run = run_pim("sum", "pim", mode="event")
        assert run.verified
        log = session.command_log
        assert any(command.kind in COMPUTE for _, command in log)
        assert timing_violations(log) == []

    def test_closed_page_random_loads(self):
        system = System(SystemConfig(open_row_policy=False))
        system.controller.command_log = log = []
        span = 1 << 20
        base = system.malloc(span)
        rng = random.Random(7)
        ops = [Load(base + rng.randrange(span // 64) * 64) for _ in range(4000)]
        system.run([ops])
        assert sum(command.kind is PRE for _, command in log) > 0
        assert timing_violations(log) == []
