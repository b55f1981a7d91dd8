"""Throughput benchmarks for GOBO's computational kernels.

These are proper multi-round pytest-benchmark measurements on realistic
layer sizes (a 768x768 BERT-Base attention FC), quantifying the paper's
"quantizing the model takes about 10 minutes on a single CPU core" claim at
our scale — plus the serving-side kernels: lookup matmul vs the
dequantize-then-matmul baseline, bit-unpack throughput, and lazy-load
bytes-touched.

``test_record_bench_kernels_json`` writes ``BENCH_kernels.json`` to
``benchmarks/results/`` with its own ``perf_counter`` timings (independent
of pytest-benchmark, so it still records under ``--benchmark-disable``, as
the CI smoke job runs it).  ``scripts/check_bench.py`` schema-checks the
file and gates the lookup speedup over decode-per-call at >= 1.0x at both
batch 1 and batch 8: the tiled kernel decodes one cache-sized band of the
weights at a time and multiplies it by BLAS, so batching does not hand the
win back to the baseline.  The record also times ``x @ W.T`` on weights
decoded once (cached FP32 BLAS, what a deployment that keeps FP32 weights
runs) and stores ``lookup_over_blas_batch{1,8}``; a full-size record fails
the checker when the batch-8 ratio exceeds 2.0.  The current record is
committed at ``benchmarks/BENCH_kernels.json``.

In ``REPRO_BENCH_SMOKE`` mode the serving benchmarks shrink to a 256x256
layer so the job finishes in seconds; the JSON records which size it
measured.
"""

import json
import os
import time

import numpy as np
import pytest

from benchmarks.conftest import _smoke_mode
from repro import obs
from repro.core.binning import assign_to_centroids, equal_population_centroids
from repro.core.clustering import gobo_cluster, kmeans_cluster
from repro.core.model_quantizer import quantize_model
from repro.core.outliers import OutlierDetector
from repro.core.quantizer import quantize_tensor
from repro.core.serialization import load_quantized_model, save_quantized_model
from repro.kernels import LookupKernel, dequantize_matmul
from repro.models import BertModel, get_config
from repro.models.zoo import SyntheticWeightSpec, synthetic_layer_weights
from repro.utils.bitpack import pack_bits, unpack_bits

#: Serving-kernel layer shape: full BERT-Base FC, or small in smoke mode.
KERNEL_SHAPE = (256, 256) if _smoke_mode() else (768, 768)
#: Timed repeats for the perf_counter measurements (min-of-N).
REPEATS = 5 if _smoke_mode() else 20


@pytest.fixture(scope="module")
def layer():
    return synthetic_layer_weights((768, 768), SyntheticWeightSpec(), rng=0)


@pytest.fixture(scope="module")
def gaussian_group(layer):
    split = OutlierDetector().split(layer)
    return split.gaussian_values(layer).astype(np.float64)


@pytest.fixture(scope="module")
def codes():
    """The shared 3-bit code array for the bitpack benchmarks."""
    return np.random.default_rng(0).integers(0, 8, size=768 * 768)


@pytest.fixture(scope="module")
def quantized_kernel_layer():
    weights = synthetic_layer_weights(KERNEL_SHAPE, SyntheticWeightSpec(), rng=1)
    tensor, _ = quantize_tensor(weights, bits=3)
    return tensor


def test_bench_outlier_detection(benchmark, layer):
    split = benchmark(lambda: OutlierDetector().split(layer))
    assert 0 < split.outlier_count < layer.size // 100


def test_bench_equal_population_init(benchmark, gaussian_group):
    centroids = benchmark(lambda: equal_population_centroids(gaussian_group, 8))
    assert centroids.size == 8


def test_bench_assignment(benchmark, gaussian_group):
    centroids = equal_population_centroids(gaussian_group, 8)
    assignment = benchmark(lambda: assign_to_centroids(gaussian_group, centroids))
    assert assignment.size == gaussian_group.size


def test_bench_gobo_cluster(benchmark, gaussian_group):
    result = benchmark(lambda: gobo_cluster(gaussian_group, 3))
    assert result.converged


def test_bench_kmeans_cluster_to_fixpoint(benchmark, gaussian_group):
    result = benchmark.pedantic(
        lambda: kmeans_cluster(gaussian_group, 3), rounds=3, iterations=1
    )
    assert result.converged


def test_bench_full_layer_quantization(benchmark, layer):
    quantized = benchmark.pedantic(
        lambda: quantize_tensor(layer, bits=3)[0], rounds=3, iterations=1
    )
    assert quantized.compression_ratio() > 9.0


def test_bench_dequantize(benchmark, layer):
    quantized, _ = quantize_tensor(layer, bits=3)
    restored = benchmark(quantized.dequantize)
    assert restored.shape == layer.shape


def test_bench_pack_bits(benchmark, codes):
    packed = benchmark(lambda: pack_bits(codes, 3))
    assert len(packed) == (codes.size * 3 + 7) // 8


def test_bench_unpack_bits(benchmark, codes):
    packed = pack_bits(codes, 3)
    unpacked = benchmark(lambda: unpack_bits(packed, 3, codes.size))
    assert unpacked.size == codes.size


# --------------------------------------------------------- serving kernels
def test_bench_lookup_matmul_batch1(benchmark, quantized_kernel_layer):
    kernel = LookupKernel(quantized_kernel_layer)
    x = np.random.default_rng(2).normal(size=(1, KERNEL_SHAPE[1]))
    y = benchmark(lambda: kernel.matmul(x))
    assert y.shape == (1, KERNEL_SHAPE[0])


def test_bench_dequantize_matmul_batch1(benchmark, quantized_kernel_layer):
    x = np.random.default_rng(2).normal(size=(1, KERNEL_SHAPE[1]))
    y = benchmark(lambda: dequantize_matmul(x, quantized_kernel_layer))
    assert y.shape == (1, KERNEL_SHAPE[0])


def _timeit(func, repeats=REPEATS):
    """Min-of-N wall time; independent of pytest-benchmark so the JSON
    baseline records even under --benchmark-disable."""
    func()  # warm-up
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _measure_lazy_load(tmp_path):
    """Archive size vs bytes actually mapped by a lazy load + one layer."""
    model = BertModel(get_config("tiny-bert-base")).eval()
    qmodel = quantize_model(model, weight_bits=3, embedding_bits=4)
    path = tmp_path / "bench_lazy.npz"
    save_quantized_model(qmodel, path)
    archive_bytes = path.stat().st_size

    def mapped_bytes(trace):
        return int(
            sum(e["value"] for e in trace.events if e["name"] == "npzmap.bytes_mapped")
        )

    start = time.perf_counter()
    with obs.scope() as load_trace:
        lazy = load_quantized_model(path, lazy=True)
    load_seconds = time.perf_counter() - start
    with obs.scope() as layer_trace:
        lazy.quantized[lazy.fc_names[0]]
    start = time.perf_counter()
    load_quantized_model(path)
    eager_seconds = time.perf_counter() - start
    return {
        "archive_bytes": archive_bytes,
        "lazy_load_seconds": load_seconds,
        "eager_load_seconds": eager_seconds,
        "bytes_touched_at_load": mapped_bytes(load_trace),
        "bytes_touched_first_layer": mapped_bytes(layer_trace),
    }


def test_record_bench_kernels_json(results_dir, quantized_kernel_layer, tmp_path):
    """Record the BENCH_kernels.json baseline (see module docstring)."""
    rng = np.random.default_rng(2)
    kernel = LookupKernel(quantized_kernel_layer)
    tensor = quantized_kernel_layer
    weights = tensor.dequantize(dtype=np.float64)
    measurements = {}
    for batch in (1, 8):
        x = rng.normal(size=(batch, KERNEL_SHAPE[1]))
        lookup = _timeit(lambda: kernel.matmul(x))
        baseline = _timeit(lambda: dequantize_matmul(x, tensor))
        cached = _timeit(lambda: x @ weights.T)
        measurements[f"lookup_matmul_batch{batch}_seconds"] = lookup
        measurements[f"dequantize_matmul_batch{batch}_seconds"] = baseline
        measurements[f"blas_cached_matmul_batch{batch}_seconds"] = cached
        measurements[f"speedup_batch{batch}"] = baseline / lookup
        measurements[f"lookup_over_blas_batch{batch}"] = lookup / cached

    codes = rng.integers(0, 8, size=KERNEL_SHAPE[0] * KERNEL_SHAPE[1])
    packed = pack_bits(codes, 3)
    unpack_seconds = _timeit(lambda: unpack_bits(packed, 3, codes.size))
    measurements["unpack_seconds"] = unpack_seconds
    measurements["unpack_values_per_second"] = codes.size / unpack_seconds
    measurements["lazy_load"] = _measure_lazy_load(tmp_path)

    record = {
        "schema": "bench-kernels/v1",
        "smoke": _smoke_mode(),
        "config": {
            "shape": list(KERNEL_SHAPE),
            "bits": 3,
            "batch_sizes": [1, 8],
            "repeats": REPEATS,
            "numpy": np.__version__,
        },
        "measurements": measurements,
    }
    out = results_dir / "BENCH_kernels.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"\n[written to benchmarks/results/BENCH_kernels.json] "
          f"batch-1 speedup {measurements['speedup_batch1']:.2f}x, "
          f"batch-8 {measurements['lookup_over_blas_batch8']:.2f}x cached BLAS")

    # The CI gate proper is scripts/check_bench.py; assert the invariant
    # here too so a local run fails loudly if the kernel regresses.  Batch
    # 1 is the paper's latency scenario; at batch 8 the tiled decode must
    # still beat decoding the whole matrix per call.
    for batch in (1, 8):
        assert measurements[f"speedup_batch{batch}"] >= 1.0, (
            f"lookup kernel slower than dequantize baseline at batch {batch}: "
            f"{measurements[f'speedup_batch{batch}']:.2f}x"
        )


def test_bench_kernels_json_is_fresh(results_dir):
    """The recording test above must have produced a parseable file."""
    if os.environ.get("PYTEST_XDIST_WORKER"):
        pytest.skip("ordering not guaranteed under xdist")
    path = results_dir / "BENCH_kernels.json"
    assert path.exists(), "test_record_bench_kernels_json did not run first"
    record = json.loads(path.read_text())
    assert record["schema"] == "bench-kernels/v1"
