"""Benchmark of the repro pipeline: generate -> encode -> characterize ->
decode -> plan -> serve, timed end to end and, in a traced run, by layer.

Run from the repository root::

    python3 perfbench/run.py --workload text-log --seed 1 --seconds 45 --trace 0

See :mod:`perfbench.workloads` for the workloads and why each exists.
"""
