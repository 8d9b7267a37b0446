"""End-to-end and per-layer benchmark of the MRPF reproduction.

Run it from the repository root::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 10 --trace 0

See ``perfbench/README.md`` for the workloads, metrics and layer map.
"""
