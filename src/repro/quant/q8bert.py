"""Q8BERT-like baseline: symmetric 8-bit fixed-point quantization.

Intel's Q8BERT [Zafrir et al. 2019] quantizes weights and embeddings to 8-bit
fixed point with a per-tensor symmetric scale, and fine-tunes with a
straight-through estimator to recover the accuracy loss.  Table III's row is
weights-only and post-training: at 8 bits the uniform rounding error is small
enough that the tiny models tolerate it directly.  The grid runs through the
engine as the ``"q8bert-grid"`` tensor method, its ``2^bits`` code values
stored as the layer's centroid table.  Q8BERT's native storage is one int8
per weight plus a scale per tensor, a fixed 4x over FP32; the archive's
256-entry table adds 1 KiB per tensor, which is noise at BERT scale (a
768x768 layer stores 3.99x).
"""

from __future__ import annotations

import numpy as np

from repro.core.quantizer import (
    TensorMethodContext,
    TensorMethodResult,
    register_tensor_method,
    single_pass_result,
)
from repro.errors import QuantizationError
from repro.quant.base import EngineBackedQuantizer


def symmetric_quantize(values: np.ndarray, bits: int = 8) -> tuple[np.ndarray, float]:
    """Quantize to signed ``bits``-bit integers with a symmetric scale.

    Returns ``(codes, scale)`` with ``values ~= codes * scale``.
    """
    if not 2 <= bits <= 16:
        raise QuantizationError(f"bits must be in [2, 16], got {bits}")
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise QuantizationError("cannot quantize an empty tensor")
    limit = float(np.abs(values).max())
    max_code = (1 << (bits - 1)) - 1
    if limit == 0.0:
        return np.zeros(values.shape, dtype=np.int32), 1.0
    scale = limit / max_code
    codes = np.clip(np.round(values / scale), -max_code - 1, max_code).astype(np.int32)
    return codes, scale


def symmetric_dequantize(codes: np.ndarray, scale: float) -> np.ndarray:
    """Inverse of :func:`symmetric_quantize`."""
    return np.asarray(codes, dtype=np.float64) * scale


def _q8bert_grid_method(
    weights: np.ndarray, ctx: TensorMethodContext
) -> TensorMethodResult:
    """Symmetric fixed-point grid as an engine tensor method.

    The ``2^bits`` uniformly spaced code values become the centroid table
    (``code * scale``), so the engine's generic packed-codes + centroids
    archive reproduces :func:`symmetric_dequantize` arithmetic exactly.
    No weight is ever an outlier — the grid covers the full range.
    """
    flat = np.asarray(weights, dtype=np.float64).ravel()
    codes, scale = symmetric_quantize(flat, ctx.bits)
    max_code = (1 << (ctx.bits - 1)) - 1
    centroids = np.arange(-max_code - 1, max_code + 1, dtype=np.float64) * scale
    assignment = codes.astype(np.int64).ravel() + max_code + 1
    result = single_pass_result(flat, centroids, assignment)
    return TensorMethodResult(
        outlier_mask=np.zeros(flat.size, dtype=bool), clustering=result
    )


register_tensor_method("q8bert-grid", _q8bert_grid_method)


class Q8BertQuantizer(EngineBackedQuantizer):
    """Whole-model 8-bit fixed-point quantization (weights + embeddings).

    :meth:`quantize` (inherited) runs the grid through the engine as the
    ``"q8bert-grid"`` tensor method, so Q8BERT models flow through format v3
    archives, durable jobs and the serving stack like any other method.
    """

    name = "q8bert"
    requires_finetuning = True  # the original method fine-tunes; see module doc

    def __init__(self, bits: int = 8) -> None:
        if not 2 <= bits <= 16:
            raise QuantizationError(f"bits must be in [2, 16], got {bits}")
        self.bits = bits

    def engine_options(
        self,
        state: dict[str, np.ndarray],
        fc_names: tuple[str, ...],
        embedding_names: tuple[str, ...],
    ) -> dict:
        return {
            "weight_bits": self.bits,
            "embedding_bits": self.bits,
            "method": "q8bert-grid",
        }
