"""Shared fixtures for the benchmark/reproduction harness.

Every benchmark writes its rendered table or figure series to
``benchmarks/results/`` so EXPERIMENTS.md can cite the regenerated artifacts,
and registers one timed measurement with pytest-benchmark.

Environment switches (used by the CI observability job):

* ``REPRO_BENCH_SMOKE=1`` — skip the fine-tuning-backed benchmarks (the
  table/figure regenerations that train tiny models first) so the remaining
  suite exercises the quantization pipeline end-to-end in seconds.
* ``REPRO_TRACE=path.jsonl`` — record an observability trace of the whole
  benchmark session to ``path.jsonl``; ``repro profile --check`` then fails
  the job on any schema violation.

BLAS is pinned to one thread unless the caller sets its thread variables:
BLAS reads them once, when numpy loads, and on a 2-CPU host OpenBLAS's
default of 2 threads took ~8 ms for an ``(8x768) @ (768x768)`` product
that takes ~0.6 ms on one, so unpinned timings measure the scheduler.
"""

from __future__ import annotations

import os
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"

#: Benchmarks that fine-tune models before measuring; skipped in smoke mode.
TRAINING_HEAVY = frozenset({
    "test_table3_mnli_methods.py",
    "test_table4_centroid_policies.py",
    "test_table5_distilbert.py",
    "test_table6_roberta.py",
    "test_fig4_embedding_accuracy.py",
    "test_sensitivity_scan.py",
})


def _smoke_mode() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def pytest_collection_modifyitems(config, items):
    if not _smoke_mode():
        return
    skip = pytest.mark.skip(reason="REPRO_BENCH_SMOKE=1 skips fine-tuning benchmarks")
    for item in items:
        if item.path.name in TRAINING_HEAVY:
            item.add_marker(skip)


@pytest.fixture(scope="session", autouse=True)
def _session_trace():
    """Record the whole benchmark session when REPRO_TRACE names a file."""
    trace_path = os.environ.get("REPRO_TRACE")
    if not trace_path:
        yield
        return
    from repro import obs

    sink = obs.JsonlSink(trace_path)
    obs.install(sink)
    try:
        yield
    finally:
        obs.uninstall(sink)
        sink.close()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def emit(results_dir: Path, name: str, text: str) -> None:
    """Write an artifact and echo it for -s runs."""
    (results_dir / name).write_text(text + "\n")
    print(f"\n{text}\n[written to benchmarks/results/{name}]")


def run_once(benchmark, func):
    """Register ``func`` with pytest-benchmark as a single-shot measurement.

    Table/figure regenerations are minutes-long end-to-end runs; measuring
    them once is the honest cost figure (kernel-level throughput has its own
    multi-round benchmarks in test_kernels.py).
    """
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)
