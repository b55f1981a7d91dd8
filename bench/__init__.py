"""The repository's benchmark: four workloads, end-to-end and per-layer metrics.

Run ``python -m bench --help``; see ``bench/README.md``.
"""
