"""End-to-end benchmark of the reproduction (see README.md).

``python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
is the command ``BENCHMARK.json`` names; ``python -m benchmarks.e2e`` is
the same measurement over all workloads with a result file and ``compare``.
"""
