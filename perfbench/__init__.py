"""Serving benchmark for the vault deployment.

Run one workload per process from the repository root::

    python3 perfbench/run.py --workload seq-zipf --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a separate traced run.
``python3 perfbench/run.py --smoke`` runs the benchmark's self-checks.
The benchmark only calls the public API under ``src/repro``; it patches
nothing outside the traced run.
"""
