"""Zero-shot dynamic quantization (El-Kurdi et al.).

*Zero-Shot Dynamic Quantization for Transformer Inference* observes that
transformer weight tensors are near-Gaussian, so a uniform grid placed over
``mean ± 3σ`` captures almost all weights without any calibration data —
quantization parameters come from the tensor itself, at load time.  The few
weights outside the clip range (≈0.27% under the Gaussian assumption, at
most 1/9 by Chebyshev's inequality) would otherwise stretch the grid and
waste levels; we store them FP32 through GOBO's outlier channel, which the
paper's "outliers are rare but matter" finding motivates.

The method is registered as the ``"zeroshot"`` tensor method, so it flows
through the layer-parallel engine, durable jobs, format v3 archives and the
serving stack unchanged.  Default width is 8 bits: with no fine-tuning pass
to recover rounding error, zero-shot methods run at higher precision than
calibrated ones.
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

#: Half-width of the uniform grid in standard deviations.
ZEROSHOT_CLIP_SIGMAS = 3.0


def zeroshot_grid(
    values: np.ndarray, bits: int, clip_sigmas: float = ZEROSHOT_CLIP_SIGMAS
) -> tuple[float, float, np.ndarray]:
    """Data-free uniform grid over ``mean ± clip_sigmas * std``.

    Returns ``(lo, hi, centroids)`` where centroids are the ``2^bits``
    mid-rise level representatives.  Raises when the grid would collapse
    (zero variance) — callers reach this only through the engine, whose
    validation layer reroutes degenerate tensors to exact linear binning
    first.
    """
    flat = np.asarray(values, dtype=np.float64).ravel()
    if flat.size == 0:
        raise QuantizationError("cannot quantize an empty tensor")
    mean = float(flat.mean())
    std = float(flat.std())
    if std == 0.0:
        raise QuantizationError("zero-variance tensor has no zero-shot grid")
    lo = mean - clip_sigmas * std
    hi = mean + clip_sigmas * std
    levels = 1 << bits
    step = (hi - lo) / levels
    centroids = lo + (np.arange(levels, dtype=np.float64) + 0.5) * step
    return lo, hi, centroids


def _zeroshot_method(
    weights: np.ndarray, ctx: TensorMethodContext
) -> TensorMethodResult:
    flat = np.asarray(weights, dtype=np.float64).ravel()
    lo, hi, centroids = zeroshot_grid(flat, ctx.bits)
    outlier_mask = (flat < lo) | (flat > hi)
    inliers = flat[~outlier_mask]
    levels = 1 << ctx.bits
    step = (hi - lo) / levels
    assignment = np.clip(
        np.floor((inliers - lo) / step), 0, levels - 1
    ).astype(np.int64)
    clustering = single_pass_result(inliers, centroids, assignment)
    return TensorMethodResult(outlier_mask=outlier_mask, clustering=clustering)


register_tensor_method("zeroshot", _zeroshot_method)


class ZeroShotQuantizer(EngineBackedQuantizer):
    """Whole-model zero-shot dynamic quantization (no calibration pass)."""

    requires_finetuning = False

    def __init__(self, bits: int = 8) -> None:
        if not 2 <= bits <= 8:
            raise QuantizationError(f"bits must be in [2, 8], got {bits}")
        self.bits = bits
        self.name = "zeroshot" if bits == 8 else f"zeroshot-{bits}bit"

    def engine_options(
        self,
        state: dict[str, np.ndarray],
        fc_names: tuple[str, ...],
        embedding_names: tuple[str, ...],
    ) -> dict:
        return {
            "weight_bits": self.bits,
            "embedding_bits": self.bits,
            "method": "zeroshot",
        }
