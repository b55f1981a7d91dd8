"""Core layers: Linear (the FC layers GOBO quantizes), Embedding, LayerNorm,
Dropout."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor
from repro.utils.rng import ensure_rng


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``.

    The weight is stored as ``(out_features, in_features)`` — the HuggingFace
    convention GOBO's per-layer quantization operates on.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: int | np.random.Generator | None = None,
        init_std: float = 0.02,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ShapeError(f"invalid Linear dims ({in_features}, {out_features})")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.normal((out_features, in_features), std=init_std, rng=rng))
        self.bias = Parameter(init.zeros((out_features,)))

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_features:
            raise ShapeError(
                f"Linear expected last dim {self.in_features}, got {x.shape[-1]}"
            )
        return x.matmul(self.weight.swapaxes(0, 1)) + self.bias


class Embedding(Module):
    """Lookup table of ``num_embeddings`` vectors of width ``embedding_dim``."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: int | np.random.Generator | None = None,
        init_std: float = 0.02,
    ) -> None:
        super().__init__()
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ShapeError(f"invalid Embedding dims ({num_embeddings}, {embedding_dim})")
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.normal((num_embeddings, embedding_dim), std=init_std, rng=rng))

    def forward(self, ids: np.ndarray) -> Tensor:
        return F.embedding_lookup(self.weight, ids)


class LayerNorm(Module):
    """Layer normalization with learnable affine parameters."""

    def __init__(self, normalized_dim: int, eps: float = 1e-12) -> None:
        super().__init__()
        self.normalized_dim = normalized_dim
        self.eps = eps
        self.weight = Parameter(init.ones((normalized_dim,)))
        self.bias = Parameter(init.zeros((normalized_dim,)))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)


class Dropout(Module):
    """Inverted dropout, active only in training mode."""

    def __init__(self, rate: float, rng: int | np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = ensure_rng(rng if rng is not None else 0)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.rate, self._rng, training=self.training)
