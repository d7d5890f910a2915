"""End-to-end benchmark of the placement service and the paper's Table 1.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload; ``python3 perfbench/aa.py`` runs two sets of runs of the
same code and compares them against the bounds in ``BENCHMARK.json``.  See
``perfbench/README.md``.
"""
