"""The benchmark's workloads: fixed spec sets over the public figure drivers.

Each workload is a list of :class:`repro.perf.specs.RunSpec` built from
the same spec sets ``repro bench`` and the figure harnesses use
(:func:`repro.harness.specsets.figure_specs`, and
:func:`repro.harness.patternscan.pattern_sweep_specs` for the fig7
strided sweep). The benchmark seed replaces every spec's ``seed``; only
the drivers that take one see it (fig9 transactions, fig13 GEMM, infer,
pim). fig10/fig11 tables (``make_rows`` seed 1), the HTAP transaction
stream (``txn_seed`` 7) and the pattern sweep stay pinned.

Why these three (the layer each one loads is what later changes are
judged on):

- ``event-db`` — the paper's DB figures on the timed event machine:
  data-plane table loads, ``System.run`` with caches/controller/DRAM
  timing, and the scalar oracle all carry weight; ``repro.vec`` is idle.
- ``fast-replay`` — the same DB figures plus GEMM in fast mode:
  ``vec.hier.DirtyReplay`` dominates and no machine is built, so the
  event layers are idle.
- ``gather-pim`` — infer, pim and the pattern sweep in both modes:
  non-zero pattern IDs through the CTL, whole-row PIM loads, MRA/SHIFT
  on the ranks, and ``FastSystem`` / ``ReplayCache`` instead of
  ``DirtyReplay``.

Sizes are set so one pass takes a few seconds on a 2-CPU host, which
lets a run of ``--seconds`` measure several cold passes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.harness.common import Scale, get_scale
from repro.harness.patternscan import pattern_sweep_specs
from repro.harness.specsets import figure_specs
from repro.perf.specs import RunSpec

#: Lines per point of the fig7 strided sweep (its driver default).
SWEEP_LINES = 2048


@dataclass(frozen=True)
class Workload:
    """A named, ordered list of (figure, mode) spec sets at one preset."""

    name: str
    preset: str
    parts: tuple[tuple[str, str], ...]
    #: GEMM size for fig13, replacing the preset's first size.
    gemm_n: int | None = None

    def scale(self) -> Scale:
        scale = get_scale(self.preset)
        if self.gemm_n is not None:
            scale = dataclasses.replace(scale, gemm_sizes=(self.gemm_n,))
        return scale

    def specs(self, seed: int, scale: Scale | None = None,
              sweep_lines: int = SWEEP_LINES) -> list[RunSpec]:
        """The pass's specs in execution order, seeded with ``seed``.

        ``scale`` and ``sweep_lines`` shrink the pass for smoke tests.
        """
        scale = scale or self.scale()
        specs: list[RunSpec] = []
        for figure, mode in self.parts:
            if figure == "fig7":
                specs += pattern_sweep_specs(lines=sweep_lines, mode=mode)
            else:
                specs += figure_specs(figure, scale, mode=mode)
        return [dataclasses.replace(spec, seed=seed) for spec in specs]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "event-db",
            preset="quick",
            parts=(("fig9", "event"), ("fig10", "event"), ("fig11", "event")),
        ),
        Workload(
            "fast-replay",
            preset="full",
            parts=(("fig9", "fast"), ("fig10", "fast"), ("fig13", "fast")),
            gemm_n=64,
        ),
        Workload(
            "gather-pim",
            preset="quick",
            parts=tuple(
                (figure, mode)
                for figure in ("infer", "pim", "fig7")
                for mode in ("event", "fast")
            ),
        ),
    )
}
