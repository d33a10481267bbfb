"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 hostbench/run.py --workload event-db --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split of a traced run (see BENCHMARK.json for both lists). Human-readable
lines come first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program under test is the checkout's own ``src/repro``; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _import_program() -> None:
    """Put the checkout's ``src`` and the benchmark package on sys.path."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"hostbench: no program to measure at {src / 'repro'}",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(src), str(ROOT)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import numpy

    from repro.perf.cache import code_version

    from hostbench.measure import (
        END_TO_END,
        PER_LAYER,
        end_to_end_metrics,
        measure,
        per_layer_metrics,
    )
    from hostbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    specs = workload.specs(args.seed)
    run = measure(specs, args.seconds, trace=bool(args.trace))

    if args.trace:
        values, units = per_layer_metrics(run), PER_LAYER
    else:
        values, units = end_to_end_metrics(run), END_TO_END
    env = {
        "workload": workload.name, "preset": workload.preset,
        "gemm_n": workload.gemm_n, "seed": args.seed,
        "specs": len(specs), "passes": len(run.passes),
        "traced_passes": len(run.traced), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "code_version": code_version(),
    }
    print("env " + json.dumps(env, sort_keys=True))
    print(f"counters_digest {run.warmup.digest}")
    for label, passes in (("pass", run.passes), ("traced", run.traced)):
        if passes:
            print(f"{label}_wall_s " + " ".join(f"{p.wall_s:.4f}" for p in passes))
            print(f"{label}_raw_wall_s "
                  + " ".join(f"{p.raw_wall_s:.4f}" for p in passes))
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    print(f"failed_ops {run.failed} of {run.attempted}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
