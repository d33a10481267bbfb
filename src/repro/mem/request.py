"""Memory request type flowing from caches to the memory controller."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.dram.address import DecodedAddress

_request_ids = itertools.count()


class RequestKind(enum.Enum):
    """Demand/prefetch reads and writebacks."""

    READ = "read"
    WRITE = "write"
    PREFETCH = "prefetch"

    def __init__(self, value: str) -> None:
        # Plain member attributes, read once or more per request: no
        # property call, and no dict keyed by a member (an Enum member
        # hashes in Python).
        self.is_write = value == "write"
        #: Controller stat counted per submitted request of this kind.
        self.stat = f"requests_{value}"
        #: FR-FCFS rank among equally ready requests: reads, then
        #: prefetches, then writes.
        self.priority = ("read", "prefetch", "write").index(value)


class Phase(enum.Enum):
    """Controller-internal progress of a request's command sequence."""

    QUEUED = "queued"
    NEED_PRECHARGE = "need-precharge"
    NEED_ACTIVATE = "need-activate"
    NEED_COLUMN = "need-column"
    DONE = "done"


@dataclass(slots=True)
class MemoryRequest:
    """One cache-line request to the DRAM module.

    ``pattern`` and ``shuffled`` carry the GS-DRAM access semantics
    (Section 4.2): the pattern ID rides with the column command, the
    shuffle flag comes from the page table. ``pc`` feeds the stride
    prefetcher; ``core_id`` attributes stats and completions.

    Slotted and dict-free: simulations allocate one of these per memory
    operation.

    ``no_data`` marks a request whose submitter moves the data itself
    (the cache hierarchy reads at fill completion and writes at
    eviction), so the controller only times it. ``miss_key`` is the
    hierarchy's MSHR key for a fetch. ``location`` is normally filled in
    by the controller; a submitter that already decoded the line with
    ``controller.locate`` may preset it.
    """

    address: int
    kind: RequestKind
    pattern: int = 0
    shuffled: bool = True
    pc: int = 0
    core_id: int = 0
    callback: Callable[["MemoryRequest"], None] | None = None
    data: bytes | None = None  # payload for writes, filled for reads
    request_id: int = field(default_factory=_request_ids.__next__)
    no_data: bool = False
    miss_key: tuple[int, int] | None = None
    location: DecodedAddress | None = None
    # Filled in by the controller:
    phase: Phase = Phase.QUEUED
    arrival_time: int = 0
    issue_time: int = 0
    finish_time: int = 0
    row_hit: bool | None = None

    @property
    def is_write(self) -> bool:
        return self.kind.is_write

    @property
    def is_demand(self) -> bool:
        return self.kind is not RequestKind.PREFETCH

    @property
    def queue_delay(self) -> int:
        """Cycles from arrival to first data beat."""
        return self.finish_time - self.arrival_time

    def __repr__(self) -> str:
        return (
            f"MemoryRequest(#{self.request_id} {self.kind.value} "
            f"addr={self.address:#x} patt={self.pattern} core={self.core_id})"
        )
