"""Post-hoc profiling of DRAM command logs.

Assign a list to a controller's (or PIM executor's) ``command_log``
before the run — a tracing observability session does this for you —
and feed the recorded ``(cycle, Command)`` entries here to get
time-bucketed bandwidth, bus utilisation, and row-buffer locality: the
standard plots a memory-systems paper shows beyond raw cycles. Being post-hoc, profiling adds zero cost to
runs that don't ask for it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.dram.commands import Command, CommandKind


@dataclass
class BandwidthProfile:
    """Data-bus traffic over time, in fixed-size cycle buckets."""

    bucket_cycles: int
    line_bytes: int
    buckets: list[int] = field(default_factory=list)  # bytes per bucket

    @property
    def total_bytes(self) -> int:
        return sum(self.buckets)

    @property
    def peak_bytes_per_cycle(self) -> float:
        if not self.buckets:
            return 0.0
        return max(self.buckets) / self.bucket_cycles

    def average_bytes_per_cycle(self) -> float:
        if not self.buckets:
            return 0.0
        return self.total_bytes / (len(self.buckets) * self.bucket_cycles)

    def utilization(self, bus_bytes_per_cycle: float) -> float:
        """Average fraction of peak bus bandwidth actually used.

        For DDR3-1600 behind a 4 GHz core: 64 bytes per 20 CPU cycles =
        3.2 bytes/cycle of peak transfer bandwidth.
        """
        if bus_bytes_per_cycle <= 0:
            return 0.0
        return self.average_bytes_per_cycle() / bus_bytes_per_cycle

    def busiest_bucket(self) -> int:
        """Index of the bucket with the most traffic (-1 if empty)."""
        if not self.buckets:
            return -1
        return max(range(len(self.buckets)), key=lambda i: self.buckets[i])


@dataclass
class RowLocality:
    """Row-buffer behaviour per bank."""

    activates_per_bank: dict[int, int]
    columns_per_activate: dict[int, float]  # mean columns served per row open
    runs_per_bank: dict[int, int] = field(default_factory=dict)

    @property
    def mean_row_run(self) -> float:
        """Average column commands served per row activation.

        Weighted by each bank's activation (run) count: a bank that
        opened 100 rows contributes 100x the weight of a bank that
        opened one, rather than each bank's mean counting equally.
        """
        if not self.columns_per_activate:
            return 0.0
        weights = {
            bank: self.runs_per_bank.get(bank, 1)
            for bank in self.columns_per_activate
        }
        total_runs = sum(weights.values())
        if total_runs == 0:
            return 0.0
        total_columns = sum(
            self.columns_per_activate[bank] * weights[bank]
            for bank in self.columns_per_activate
        )
        return total_columns / total_runs


def bandwidth_profile(
    trace: list[tuple[int, Command]],
    bucket_cycles: int = 1000,
    line_bytes: int = 64,
) -> BandwidthProfile:
    """Bucket the data-bus traffic of a command trace."""
    profile = BandwidthProfile(bucket_cycles=bucket_cycles, line_bytes=line_bytes)
    if not trace:
        return profile
    # max(), not trace[-1]: merged multi-controller traces are not
    # necessarily time-sorted, and an early trailing entry would size
    # the bucket list short and crash on the out-of-order commands.
    last_time = max(time for time, _command in trace)
    profile.buckets = [0] * (last_time // bucket_cycles + 1)
    for time, command in trace:
        if command.kind in (CommandKind.READ, CommandKind.WRITE):
            profile.buckets[time // bucket_cycles] += line_bytes
    return profile


def row_locality(trace: list[tuple[int, Command]]) -> RowLocality:
    """Per-bank activations and mean column commands per activation."""
    activates: dict[int, int] = defaultdict(int)
    columns_current: dict[int, int] = defaultdict(int)
    runs: dict[int, list[int]] = defaultdict(list)
    for _time, command in trace:
        bank = command.bank
        if command.kind is CommandKind.ACTIVATE:
            if columns_current[bank]:
                runs[bank].append(columns_current[bank])
                columns_current[bank] = 0
            activates[bank] += 1
        elif command.kind in (CommandKind.READ, CommandKind.WRITE):
            # Columns served on a row opened before the trace started
            # (no ACTIVATE recorded for this bank yet) have no matching
            # activation to attribute them to; counting them as a run
            # would credit a bank with locality its recorded activates
            # never produced.
            if activates[bank]:
                columns_current[bank] += 1
    for bank, pending in columns_current.items():
        if pending:
            runs[bank].append(pending)
    means = {
        bank: sum(bank_runs) / len(bank_runs)
        for bank, bank_runs in runs.items()
        if bank_runs
    }
    return RowLocality(
        activates_per_bank=dict(activates),
        columns_per_activate=means,
        runs_per_bank={bank: len(bank_runs) for bank, bank_runs in runs.items()},
    )
