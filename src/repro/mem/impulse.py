"""An Impulse-style memory controller baseline [Carter+ HPCA'99].

The paper's closest related work: Impulse exports gather operations to
the memory controller. The controller assembles a cache line containing
only the values the strided pattern needs and returns it to the
processor — saving processor-side bandwidth and cache space — but with
a *commodity* DRAM module it must still read every underlying cache
line over the DRAM bus. GS-DRAM's argument (Section 7) is precisely
that Impulse "cannot mitigate the wasted memory bandwidth consumption
between the memory controller and DRAM".

:class:`ImpulseController` implements that behaviour: a request with a
non-zero pattern is expanded into one READ per distinct underlying DRAM
line; the gathered line is assembled at the controller and delivered
when the last constituent arrives. Pattern-0 requests behave exactly as
in the base controller. This gives the ablation ``abl-4`` a
quantitative version of the paper's related-work comparison.
"""

from __future__ import annotations

from typing import Callable

from repro.core.pattern import gather_spec
from repro.dram.address import DecodedAddress
from repro.dram.module import DRAMModule
from repro.errors import SimulationError
from repro.mem.controller import MemoryController
from repro.mem.request import MemoryRequest, RequestKind
from repro.mem.schedulers import Scheduler
from repro.utils.events import Engine


class ImpulseController(MemoryController):
    """Controller-side gather over commodity DRAM."""

    def __init__(
        self,
        engine: Engine,
        module: DRAMModule,
        scheduler: Scheduler | None = None,
        refresh_enabled: bool = False,
    ) -> None:
        from repro.core.module import GSModule

        if isinstance(module, GSModule):
            raise SimulationError(
                "ImpulseController models gathers over *commodity* DRAM; "
                "use the base controller for a GS module"
            )
        super().__init__(
            engine, module, scheduler=scheduler, shuffle_latency=0,
            refresh_enabled=refresh_enabled,
        )
        self._chips = module.geometry.chips

    # ------------------------------------------------------------------
    def submit(self, request: MemoryRequest) -> None:
        if request.pattern == 0:
            super().submit(request)
            return
        if request.is_write:
            self._submit_scatter(request)
        else:
            self._submit_gather(request)

    # ------------------------------------------------------------------
    def _constituent_lines(self, request: MemoryRequest) -> list[tuple[int, int]]:
        """(line address, value index) per gathered value, in order."""
        line_address = self.module.mapping.line_address(request.address)
        loc = self.module.decode(line_address)
        spec = gather_spec(self._chips, request.pattern, loc.column)
        out = []
        for index in spec.indices:
            line, value = divmod(index, self._chips)
            address = self.module.mapping.encode(loc.bank, loc.row, line)
            out.append((address, value))
        return out

    def _submit_gather(self, request: MemoryRequest) -> None:
        constituents = self._constituent_lines(request)
        distinct = sorted({address for address, _ in constituents})
        state = {
            "remaining": len(distinct),
            "lines": {},
        }
        self.stats.add("impulse_gathers")
        self.stats.add("impulse_expansion", len(distinct))

        def on_piece(piece: MemoryRequest) -> None:
            state["lines"][piece.address] = piece.data
            state["remaining"] -= 1
            if state["remaining"] == 0:
                self._finish_gather(request, constituents, state["lines"])

        for address in distinct:
            super(ImpulseController, self).submit(
                MemoryRequest(
                    address,
                    RequestKind.READ,
                    core_id=request.core_id,
                    pc=request.pc,
                    callback=on_piece,
                )
            )

    def _finish_gather(
        self,
        request: MemoryRequest,
        constituents: list[tuple[int, int]],
        lines: dict[int, bytes | None],
    ) -> None:
        width = self.module.geometry.column_bytes
        if any(data is None for data in lines.values()):
            # Pieces carried no data (no_data requests): the caller
            # handles functional movement; deliver without assembly.
            request.data = None
        else:
            parts = []
            for address, value_index in constituents:
                line = lines[address]
                assert line is not None
                parts.append(line[value_index * width : (value_index + 1) * width])
            request.data = b"".join(parts)
        request.finish_time = self.engine.now
        if request.callback is not None:
            request.callback(request)

    def _submit_scatter(self, request: MemoryRequest) -> None:
        """A patterned write: read-modify-write of every touched line."""
        if request.data is None and not request.no_data:
            raise SimulationError(f"scatter without data: {request}")
        constituents = self._constituent_lines(request)
        width = self.module.geometry.column_bytes
        # Functional scatter first (unless the hierarchy did it).
        if not request.no_data:
            for position, (address, value_index) in enumerate(constituents):
                line = bytearray(self.module.read_line(address))
                line[value_index * width : (value_index + 1) * width] = (
                    request.data[position * width : (position + 1) * width]
                )
                self.module.write_line(address, bytes(line))
        distinct = sorted({address for address, _ in constituents})
        state = {"remaining": len(distinct)}
        self.stats.add("impulse_scatters")
        self.stats.add("impulse_expansion", len(distinct))

        def on_piece(piece: MemoryRequest) -> None:
            state["remaining"] -= 1
            if state["remaining"] == 0:
                request.finish_time = self.engine.now
                if request.callback is not None:
                    request.callback(request)

        for address in distinct:
            piece = MemoryRequest(
                address,
                RequestKind.WRITE,
                core_id=request.core_id,
                callback=on_piece,
                no_data=True,  # functional part done above
            )
            super(ImpulseController, self).submit(piece)


class ImpulseModule(DRAMModule):
    """Commodity DRAM whose *functional* interface accepts patterns.

    The chips store plain unshuffled lines; a patterned functional read
    or write is served by touching every underlying line — mirroring
    what the Impulse controller does with timed commands. This lets the
    cache hierarchy and applications run unmodified on the Impulse
    baseline.
    """

    @property
    def supports_patterns(self) -> bool:
        return True

    def _constituents_of(self, line_address: int, pattern: int) -> list[tuple[int, int]]:
        """(pattern-0 line address, byte offset) per gathered value."""
        loc = self.mapping.decode(line_address)
        chips = self.geometry.chips
        width = self.geometry.column_bytes
        spec = gather_spec(chips, pattern, loc.column)
        out = []
        for index in spec.indices:
            line, value = divmod(index, chips)
            out.append((self.mapping.encode(loc.bank, loc.row, line), value * width))
        return out

    def constituents(
        self, address: int, pattern: int, shuffled: bool = False
    ) -> list[tuple[int, int]]:
        """Interface-compatible with :meth:`GSModule.constituents`."""
        if pattern == 0:
            width = self.geometry.column_bytes
            return [(address, i * width) for i in range(self.geometry.chips)]
        return self._constituents_of(address, pattern)

    def overlapping_columns(self, column: int, pattern: int) -> set[int]:
        """Columns of pattern-0 lines sharing data with this gather."""
        chips = self.geometry.chips
        column_mask = self.geometry.columns_per_row - 1
        return {((chip & pattern) ^ column) & column_mask for chip in range(chips)}

    def read_line(self, address: int, pattern: int = 0, shuffled: bool = False,
                  location: DecodedAddress | None = None) -> bytes:
        if pattern == 0:
            return super().read_line(address, location=location)
        width = self.geometry.column_bytes
        parts = []
        for line_address, offset in self._constituents_of(address, pattern):
            parts.append(super().read_line(line_address)[offset : offset + width])
        return b"".join(parts)

    def write_line(
        self, address: int, data: bytes, pattern: int = 0, shuffled: bool = False,
        location: DecodedAddress | None = None,
    ) -> None:
        if pattern == 0:
            super().write_line(address, data, location=location)
            return
        width = self.geometry.column_bytes
        for position, (line_address, offset) in enumerate(
            self._constituents_of(address, pattern)
        ):
            line = bytearray(super().read_line(line_address))
            line[offset : offset + width] = data[position * width : (position + 1) * width]
            super().write_line(line_address, bytes(line))
