"""Host-time benchmark of the GS-DRAM reproduction.

``python3 hostbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one named workload (see :mod:`hostbench.workloads`)
from the root of a checkout and prints its metrics; ``BENCHMARK.json``
at the repository root declares the workloads and metrics.
"""
