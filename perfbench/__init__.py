"""End-to-end benchmark of the VSAN reproduction.

Three workloads (``train``, ``serve-catalog``, ``cluster``) drive the
program only through its public API on inputs generated from a seed.
``perfbench/run.py`` is the entry point; ``BENCHMARK.json`` at the
repository root lists the workloads and metrics.
"""
