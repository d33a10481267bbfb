"""Timed memory controller over the DRAM module.

The controller owns per-bank request queues and drives each bank's
command sequence (PRE -> ACT -> RD/WR) with an open-row policy: rows
are left open after access and closed only when a conflicting request
or a refresh needs the bank. Scheduling is per-bank FR-FCFS by default
(see :mod:`repro.mem.schedulers`); the shared data bus and command bus
serialize transfers across banks.

GS-DRAM specifics (Section 3.6): reads/writes on shuffled pages pay the
``shuffle_latency`` (3 cycles for GS-DRAM(8,3,3)) to traverse the
controller's shuffle network, and the pattern ID rides with the column
command at no extra timing cost.
"""

from __future__ import annotations

from typing import Callable

from repro.dram.address import DecodedAddress
from repro.dram.commands import Command, CommandKind, refresh
from repro.dram.module import DRAMModule
from repro.errors import SimulationError
from repro.mem.request import MemoryRequest, Phase
from repro.mem.schedulers import FRFCFS, Scheduler
from repro.utils.events import Engine
from repro.utils.statistics import Histogram, StatGroup


class MemoryController:
    """Queues, schedules, and times requests against one DRAM module."""

    def __init__(
        self,
        engine: Engine,
        module: DRAMModule,
        scheduler: Scheduler | None = None,
        shuffle_latency: int = 3,
        refresh_enabled: bool = False,
        open_row_policy: bool = True,
    ) -> None:
        self.engine = engine
        self.module = module
        self.scheduler = scheduler or FRFCFS()
        # A scheduler passed explicitly may carry arbitration state from
        # a previous run (e.g. FR-FCFS starvation streaks); a controller
        # must start from a clean slate or back-to-back simulations with
        # the same scheduler instance are not deterministic.
        self.scheduler.reset()
        self.shuffle_latency = shuffle_latency if module.supports_patterns else 0
        self.refresh_enabled = refresh_enabled
        #: Open-row (Table 1) vs closed-page: close the row after each
        #: column command when no queued request wants it.
        self.open_row_policy = open_row_policy
        #: The DRAM command log: every issued command is appended as
        #: ``(issue cycle, Command)``. ``None`` (the default) records
        #: nothing; assign a list (possibly shared) to turn it on.
        self.command_log: list[tuple[int, Command]] | None = None
        #: Optional structured tracer (:mod:`repro.obs.tracer`); ``None``
        #: keeps every hook to a single identity check on miss paths.
        self.tracer = None

        banks = module.geometry.banks
        self._queues: list[list[MemoryRequest]] = [[] for _ in range(banks)]
        self._active: list[MemoryRequest | None] = [None] * banks
        self._bus_free = 0  # data bus
        self._cmd_free = 0  # command bus (one command per bus cycle)
        self._rank_next_activate = 0  # tRRD across banks
        self._recent_activates: list[int] = []  # tFAW window (last 4 ACTs)

        self.stats = StatGroup("memory_controller")
        self.queue_delay = Histogram(bucket_width=50)
        self._last_refresh = 0
        self._cpu_per_bus = module.cpu_per_bus
        self._decode = module.mapping.decode
        self._line_mask = ~(module.line_bytes - 1)

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def locate(self, address: int) -> DecodedAddress:
        """DRAM coordinates of the line holding ``address``.

        The one decode of a request: ``submit`` stores it on the request
        (unless the submitter preset it from this method), and the
        functional line access reuses it.
        """
        return self._decode(address & self._line_mask)

    def submit(self, request: MemoryRequest) -> None:
        """Queue a request; its callback fires when data is delivered."""
        if self.refresh_enabled:
            self._maybe_refresh()
        request.arrival_time = self.engine.now
        location = request.location
        if location is None:
            location = request.location = self._decode(
                request.address & self._line_mask
            )
        request.phase = Phase.QUEUED
        counters = self.stats.counters
        counters["requests"] += 1
        counters[request.kind.stat] += 1
        if request.pattern:
            counters["requests_patterned"] += 1
        bank_id = location.bank
        self._queues[bank_id].append(request)
        if self._active[bank_id] is None:
            self._bank_next(bank_id)

    def pending_requests(self) -> int:
        """Requests queued or in service (drain check for barriers)."""
        queued = sum(len(q) for q in self._queues)
        in_service = sum(1 for r in self._active if r is not None)
        return queued + in_service

    # ------------------------------------------------------------------
    # Per-bank service machinery
    # ------------------------------------------------------------------
    def _bank_next(self, bank_id: int) -> None:
        queue = self._queues[bank_id]
        if not queue or self._active[bank_id] is not None:
            return
        bank = self.module.banks[bank_id]
        request = self.scheduler.choose(queue, bank)
        queue.remove(request)
        self._active[bank_id] = request
        open_row = bank.open_row
        if open_row == request.location.row:
            request.phase = Phase.NEED_COLUMN
            request.row_hit = True
        elif open_row is None:
            request.phase = Phase.NEED_ACTIVATE
            request.row_hit = False
        else:
            request.phase = Phase.NEED_PRECHARGE
            request.row_hit = False
        self._advance(bank_id)

    def _advance(self, bank_id: int) -> None:
        # Wake-ups may be stale (the request they were scheduled for has
        # completed); the phase machine is idempotent, so a stale wake
        # simply drives whatever request is active now, or returns.
        # Phases fall through: a PRE or ACT issued now lets the next
        # phase try at the same cycle.
        request = self._active[bank_id]
        if request is None:
            return
        bank = self.module.banks[bank_id]
        now = self.engine.now
        timing = self.module.timing
        phase = request.phase

        if phase is Phase.NEED_PRECHARGE:
            earliest = max(bank.next_precharge, self._cmd_free, now)
            if earliest > now:
                self.engine.schedule_at(earliest, self._advance, bank_id)
                return
            bank.issue_precharge(now)
            self._record_command(Command(CommandKind.PRECHARGE, bank_id))
            self._cmd_free = now + self._cpu_per_bus
            phase = request.phase = Phase.NEED_ACTIVATE

        if phase is Phase.NEED_ACTIVATE:
            earliest = max(
                bank.next_activate, self._rank_next_activate, self._cmd_free, now
            )
            recent = self._recent_activates
            if len(recent) >= 4:
                # Four-activate window: the 5th ACT waits for tFAW after
                # the 1st of the last four.
                earliest = max(earliest, recent[-4] + timing.t_faw)
            if earliest > now:
                self.engine.schedule_at(earliest, self._advance, bank_id)
                return
            row = request.location.row
            bank.issue_activate(row, now)
            recent.append(now)
            if len(recent) > 4:
                recent.pop(0)
            self._record_command(Command(CommandKind.ACTIVATE, bank_id, row))
            self._cmd_free = now + self._cpu_per_bus
            self._rank_next_activate = now + timing.t_rrd
            phase = request.phase = Phase.NEED_COLUMN

        if phase is Phase.NEED_COLUMN:
            cas = timing.cwl if request.kind.is_write else timing.cl
            earliest = max(
                bank.next_column, self._cmd_free, self._bus_free - cas, now
            )
            if earliest > now:
                self.engine.schedule_at(earliest, self._advance, bank_id)
                return
            self._issue_column(bank, request, now)
            return

        raise SimulationError(f"request in unexpected phase {phase}")

    def _issue_column(self, bank, request: MemoryRequest, now: int) -> None:
        bank_id, row, column, _offset = request.location
        is_write = request.kind.is_write
        if is_write:
            burst_end = bank.issue_write(row, now)
            kind = CommandKind.WRITE
        else:
            burst_end = bank.issue_read(row, now)
            kind = CommandKind.READ
        self._record_command(Command(kind, bank_id, row, column, request.pattern))
        self._cmd_free = now + self._cpu_per_bus
        self._bus_free = burst_end
        self.stats.counters["row_hits" if request.row_hit else "row_misses"] += 1
        request.issue_time = now

        # Functional data movement happens with the burst.
        if not request.no_data:
            self._move_data(request)

        # Extra controller-side latency: the GS shuffle network.
        finish = burst_end + (self.shuffle_latency if request.shuffled else 0)
        request.finish_time = finish
        request.phase = Phase.DONE
        if self.tracer is not None:
            self.tracer.complete(
                "controller",
                "write" if is_write else "read",
                request.arrival_time,
                finish - request.arrival_time,
                tid=bank_id,
                args={
                    "row": row,
                    "column": column,
                    "pattern": request.pattern,
                    "row_hit": request.row_hit,
                },
            )
        self.queue_delay.observe(finish - request.arrival_time)
        self._active[bank_id] = None
        self.engine.schedule_at(finish, self._complete, request)
        if not self.open_row_policy:
            self._auto_precharge(bank_id, row)
        self._bank_next(bank_id)

    def _auto_precharge(self, bank_id: int, row: int) -> None:
        """Closed-page policy: close the row unless a queued request
        wants it (a minimal row-hit window)."""
        bank = self.module.banks[bank_id]
        wanted = any(
            req.location is not None and req.location.row == row
            for req in self._queues[bank_id]
        )
        if wanted or bank.open_row is None:
            return
        close_at = max(bank.next_precharge, self.engine.now)
        # Defer the precharge to its legal window via a scheduled close.
        if close_at > self.engine.now:
            self.engine.schedule_at(close_at, self._do_precharge, bank_id, row)
        else:
            self._do_precharge(bank_id, row)

    def _do_precharge(self, bank_id: int, row: int) -> None:
        bank = self.module.banks[bank_id]
        if bank.open_row != row or self._active[bank_id] is not None:
            return  # a newer request reopened or is using the bank
        now = self.engine.now
        if now < bank.next_precharge:
            return  # superseded; a later close will fire if still idle
        if now < self._cmd_free:
            # The close is a command like any other: it waits for, and
            # then takes, a command-bus slot.
            self.engine.schedule_at(
                self._cmd_free, self._do_precharge, bank_id, row
            )
            return
        bank.issue_precharge(now)
        self._record_command(Command(CommandKind.PRECHARGE, bank=bank_id))
        self._cmd_free = now + self._cpu_per_bus

    def _move_data(self, request: MemoryRequest) -> None:
        address = self.module.mapping.line_address(request.address)
        if self.module.supports_patterns:
            if request.is_write:
                if request.data is None:
                    raise SimulationError(
                        "write request carries no data",
                        address=request.address,
                        pattern=request.pattern,
                        cycle=self.engine.now,
                    )
                self.module.write_line(
                    address, request.data, request.pattern, request.shuffled
                )
            else:
                request.data = self.module.read_line(
                    address, request.pattern, request.shuffled
                )
        else:
            if request.pattern:
                raise SimulationError(
                    "patterned request sent to a non-GS module",
                    address=request.address,
                    pattern=request.pattern,
                    cycle=self.engine.now,
                )
            if request.is_write:
                if request.data is None:
                    raise SimulationError(
                        "write request carries no data",
                        address=request.address,
                        cycle=self.engine.now,
                    )
                self.module.write_line(address, request.data)
            else:
                request.data = self.module.read_line(address)

    def _complete(self, request: MemoryRequest) -> None:
        if request.callback is not None:
            request.callback(request)

    # ------------------------------------------------------------------
    # Shared buses, refresh, bookkeeping
    # ------------------------------------------------------------------
    def _record_command(self, command: Command) -> None:
        self.stats.counters[command.kind.stat] += 1
        if self.command_log is not None:
            self.command_log.append((self.engine.now, command))

    def _maybe_refresh(self) -> None:
        """Lazy opportunistic refresh (accounting + bank blocking).

        Rather than a free-running timer (which would keep the event
        queue alive forever), elapsed refresh intervals are settled when
        a request arrives and the controller is idle. Real controllers
        may postpone up to 8 tREFI, so deferring while banks are busy is
        within spec; an all-bank REF then blocks every bank for tRFC.
        """
        timing = self.module.timing
        now = self.engine.now
        intervals = (now - self._last_refresh) // timing.t_refi
        if intervals <= 0:
            return
        if any(active is not None for active in self._active):
            return  # postponed; settled at a later submit
        self._last_refresh += intervals * timing.t_refi
        self.stats.add("cmd_REF", intervals)
        self.stats.add("refreshes", intervals)
        if self.command_log is not None:
            self.command_log.append((now, refresh()))
        # The most recent refresh is (conservatively) modelled as in
        # progress now: close all rows and block the banks for tRFC.
        end = now + timing.t_rp + timing.t_rfc
        for bank in self.module.banks:
            bank.open_row = None
            bank.block_until(end)
