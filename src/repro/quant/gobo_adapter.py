"""Adapter running GOBO (and its centroid-policy ablations) as an
:class:`~repro.quant.base.EngineBackedQuantizer`, like every other method."""

from __future__ import annotations

import numpy as np

from repro.core.outliers import DEFAULT_LOG_PROB_THRESHOLD
from repro.core.policy import LayerPolicy
from repro.quant.base import EngineBackedQuantizer


class GoboModelQuantizer(EngineBackedQuantizer):
    """GOBO (or its centroid-policy ablations) behind the common base."""

    requires_finetuning = False

    def __init__(
        self,
        weight_bits: int | LayerPolicy = 3,
        embedding_bits: int | None = 4,
        method: str = "gobo",
        log_prob_threshold: float = DEFAULT_LOG_PROB_THRESHOLD,
    ) -> None:
        self.weight_bits = weight_bits
        self.embedding_bits = embedding_bits
        self.method = method
        self.log_prob_threshold = log_prob_threshold
        suffix = "" if method == "gobo" else f"-{method}"
        self.name = f"gobo{suffix}"

    def engine_options(
        self,
        state: dict[str, np.ndarray],
        fc_names: tuple[str, ...],
        embedding_names: tuple[str, ...],
    ) -> dict:
        return {
            "weight_bits": self.weight_bits,
            "embedding_bits": self.embedding_bits,
            "method": self.method,
            "log_prob_threshold": self.log_prob_threshold,
        }
