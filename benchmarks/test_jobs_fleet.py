"""Jobs-engine benchmarks: thread pool vs supervised process fleet.

Measures the cost of crash isolation: the same per-layer jobs through
``backend="thread"`` (shared address space, zero IPC) and
``backend="process"`` (supervised fleet: fork, per-worker pipes, pickled
outcomes, heartbeats).  The numbers answer "what does a SIGKILL-survivable
run cost?" — and the recorded byte-identity flag proves it costs nothing in
output.

``test_record_bench_jobs_json`` writes ``BENCH_jobs.json`` to
``benchmarks/results/`` (own ``perf_counter`` timings, so it records under
``--benchmark-disable``); ``scripts/check_bench.py`` schema-checks it, and
the committed baseline lives at ``benchmarks/BENCH_jobs.json``.

Gating note: the fleet can only out-run the thread pool when there are
cores to spread over *and* per-layer Python time for processes to
parallelize past the GIL.  On a single-CPU host the fixed fork+IPC
overhead is unamortizable, so ``check_bench.py`` enforces the
``speedup_process_vs_thread >= 1.0`` gate only for non-smoke records from
multi-core hosts; everywhere it gates the property that is never
hardware-dependent: ``byte_identical`` must be true.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.conftest import _smoke_mode
from repro.core.parallel import LayerJob, quantize_layers
from repro.utils.rng import derive_rng

WORKERS = 4
LAYERS = 8
SIZE = 64 if _smoke_mode() else 256
REPEATS = 2 if _smoke_mode() else 3


@pytest.fixture(autouse=True)
def fleet_supervision(monkeypatch):
    """Beat every 50 ms; declare a worker dead after 10 s of silence."""
    monkeypatch.setenv("REPRO_HEARTBEAT_INTERVAL", "0.05")
    monkeypatch.setenv("REPRO_HEARTBEAT_TIMEOUT", "10")


@pytest.fixture(scope="module")
def state():
    rng = derive_rng(7, "bench-jobs-fleet")
    return {
        f"layer{i}.weight": rng.normal(0.0, 0.04, size=(SIZE, SIZE))
        for i in range(LAYERS)
    }


@pytest.fixture(scope="module")
def jobs():
    return [LayerJob(f"layer{i}.weight", 3) for i in range(LAYERS)]


def _best_seconds(run, repeats: int = REPEATS) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        out = run()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, result = elapsed, out
    return best, result


def _identical(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(
        a[name].packed_codes == b[name].packed_codes for name in a
    )


def test_bench_thread_backend(benchmark, state, jobs):
    quantized, _, report = benchmark.pedantic(
        lambda: quantize_layers(state, jobs, workers=WORKERS),
        rounds=REPEATS, iterations=1,
    )
    assert report.backend == "thread" and len(quantized) == LAYERS


def test_bench_process_backend(benchmark, state, jobs):
    quantized, _, report = benchmark.pedantic(
        lambda: quantize_layers(state, jobs, workers=WORKERS, backend="process"),
        rounds=REPEATS, iterations=1,
    )
    assert report.backend == "process" and report.worker_deaths == 0


def test_record_bench_jobs_json(results_dir, state, jobs):
    """Record the BENCH_jobs.json baseline (see module docstring)."""
    # Warm both paths once (imports, allocator) before timing.
    quantize_layers(state, jobs, workers=WORKERS)

    thread_seconds, thread_out = _best_seconds(
        lambda: quantize_layers(state, jobs, workers=WORKERS)
    )
    process_seconds, process_out = _best_seconds(
        lambda: quantize_layers(state, jobs, workers=WORKERS, backend="process")
    )
    identical = _identical(thread_out[0], process_out[0])

    measurements = {
        "thread_seconds": thread_seconds,
        "process_seconds": process_seconds,
        "speedup_process_vs_thread": thread_seconds / process_seconds,
        "thread_layers_per_second": LAYERS / thread_seconds,
        "process_layers_per_second": LAYERS / process_seconds,
        "byte_identical": identical,
    }
    record = {
        "schema": "bench-jobs/v1",
        "smoke": _smoke_mode(),
        "config": {
            "layers": LAYERS,
            "shape": [SIZE, SIZE],
            "workers": WORKERS,
            "repeats": REPEATS,
            "cpu_count": os.cpu_count() or 1,
        },
        "measurements": measurements,
    }
    out = results_dir / "BENCH_jobs.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(
        f"\n[written to benchmarks/results/BENCH_jobs.json] "
        f"thread {thread_seconds * 1000:.0f}ms, "
        f"process {process_seconds * 1000:.0f}ms "
        f"({measurements['speedup_process_vs_thread']:.2f}x), "
        f"identical={identical}"
    )

    # The hardware-independent gate: crash isolation must be free in output.
    assert identical, "process backend produced different quantized bytes"


def test_bench_jobs_json_is_fresh(results_dir):
    if os.environ.get("PYTEST_XDIST_WORKER"):
        pytest.skip("ordering not guaranteed under xdist")
    path = results_dir / "BENCH_jobs.json"
    assert path.exists(), "test_record_bench_jobs_json did not run first"
    record = json.loads(path.read_text())
    assert record["schema"] == "bench-jobs/v1"
