"""Reference rows beside the lookup kernel at BERT-base FC shapes.

At 1, 8 and 32 rows per shape: the lookup kernel a loaded model uses, BLAS
on weights dequantized once (what a deployment that keeps FP32 weights
would run), and decode-every-call (``dequantize_matmul``).  Then the
measured kernel time and bytes against the repository's own analytic
models (``repro.hw.latency`` roofline, ``repro.memory.traffic``).  These
are recorded for reference and gate nothing.
"""

from __future__ import annotations

import time

import numpy as np

from bench import stats
from bench.layers import BASE_SHAPES
from bench.trace import kernel_bytes_touched

ROWS = (1, 8, 32)
REPEATS = 3

#: One FC layer of each BERT-base shape (out x in).
LAYER_OF_SHAPE = {
    "768x768": "encoder.0.attention.query",
    "3072x768": "encoder.0.intermediate",
    "768x3072": "encoder.0.output",
}


def _time_ms(fn) -> float:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return stats.median(samples) * 1e3


def _module(model, dotted: str):
    module = model
    for part in dotted.split("."):
        module = module._modules[part]
    return module


def baseline_rows(model, config, seq: int, forward_matmul_ms: dict[str, float],
                  fp32_forward_ms: list[float], seed: int) -> dict:
    """name → (value, unit) for the baseline and model-comparison rows.

    ``model`` is a loaded model with quantized layers attached;
    ``forward_matmul_ms`` the traced per-shape kernel p50 inside its
    forwards (``seq`` rows per call).
    """
    from repro.hw.latency import inference_latency
    from repro.hw.spec import EDGE_NPU
    from repro.kernels.lookup import dequantize_matmul
    from repro.memory.traffic import compressed_traffic
    from repro.models.footprint import fc_weight_count

    rng = np.random.default_rng(seed)
    out: dict[str, tuple[float, str]] = {}
    for shape in BASE_SHAPES:
        layer = _module(model, LAYER_OF_SHAPE[shape])
        kernel, tensor = layer.kernel, layer.tensor
        weights = tensor.dequantize(dtype=np.float64)
        for rows in ROWS:
            x = rng.standard_normal((rows, kernel.in_features))
            tag = f"{shape}.r{rows}"
            out[f"kernels.lookup_ms.{tag}"] = (_time_ms(lambda: kernel.matmul(x)), "ms")
            out[f"baseline.blas_ms.{tag}"] = (_time_ms(lambda: x @ weights.T), "ms")
            out[f"baseline.decode_ms.{tag}"] = (
                _time_ms(lambda: dequantize_matmul(x, tensor)), "ms")

        # The analytic models are whole-model sums over FC layers of equal
        # arithmetic intensity, so one layer's share is its weight share.
        share = tensor.total_count / fc_weight_count(config)
        bits = tensor.storage().effective_bits_per_weight
        predicted_s = inference_latency(config, EDGE_NPU, seq, bits).latency_seconds * share
        predicted_b = compressed_traffic(config, bits, bits, seq).weight_bytes * share
        measured_ms = forward_matmul_ms.get(shape, 0.0)
        out[f"kernels.time_vs_model.{shape}"] = (measured_ms / 1e3 / predicted_s, "ratio")
        out[f"kernels.bytes_vs_model.{shape}"] = (
            kernel_bytes_touched(kernel, seq) / predicted_b, "ratio")
    out["baseline.fp32_forward_ms_p50"] = (stats.median(fp32_forward_ms), "ms")
    return out


def empty_rows() -> dict:
    """The same names at 0, for workloads that do not run BERT-base shapes."""
    out = {}
    for shape in BASE_SHAPES:
        for rows in ROWS:
            tag = f"{shape}.r{rows}"
            for prefix in ("kernels.lookup_ms", "baseline.blas_ms", "baseline.decode_ms"):
                out[f"{prefix}.{tag}"] = (0.0, "ms")
        out[f"kernels.time_vs_model.{shape}"] = (0.0, "ratio")
        out[f"kernels.bytes_vs_model.{shape}"] = (0.0, "ratio")
    out["baseline.fp32_forward_ms_p50"] = (0.0, "ms")
    return out
