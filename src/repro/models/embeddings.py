"""BERT input embeddings: word + position + token-type, then LayerNorm."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.models.config import BertConfig
from repro.nn.attention import TokenLayout
from repro.nn.layers import Dropout, Embedding, LayerNorm
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.utils.rng import derive_rng


class BertEmbeddings(Module):
    """Sum of word, position and segment embeddings, normalized.

    ``config.embedding_noise_std`` adds Gaussian noise to the summed
    embeddings in training mode only.  Massively pretrained models are
    naturally robust to small embedding perturbations; the tiny from-scratch
    evaluation models acquire the same robustness through this noise, so
    their response to embedding-table quantization mirrors the paper's
    (Figure 4) instead of reflecting brittle task-specific codes.
    """

    def __init__(self, config: BertConfig, rng: int | np.random.Generator | None = None) -> None:
        super().__init__()
        self.config = config
        self._noise_rng = derive_rng(rng, "noise")
        self.word_embeddings = Embedding(
            config.vocab_size,
            config.hidden_size,
            rng=derive_rng(rng, "word"),
            init_std=config.initializer_std,
        )
        self.position_embeddings = Embedding(
            config.max_position,
            config.hidden_size,
            rng=derive_rng(rng, "position"),
            init_std=config.initializer_std,
        )
        self.token_type_embeddings = Embedding(
            config.type_vocab_size,
            config.hidden_size,
            rng=derive_rng(rng, "token_type"),
            init_std=config.initializer_std,
        )
        self.norm = LayerNorm(config.hidden_size)
        self.dropout = Dropout(config.dropout_rate, rng=derive_rng(rng, "dropout"))

    def forward(
        self,
        input_ids: np.ndarray,
        token_type_ids: np.ndarray | None = None,
        layout: TokenLayout | None = None,
    ) -> Tensor:
        """``(batch, seq, hidden)`` embeddings; under ``layout`` only the
        cells it computes, each at its column's position."""
        input_ids = np.asarray(input_ids)
        if input_ids.ndim != 2:
            raise ShapeError(f"input_ids must be (batch, seq), got {input_ids.shape}")
        batch, seq = input_ids.shape
        if seq > self.config.max_position:
            raise ShapeError(
                f"sequence length {seq} exceeds max_position {self.config.max_position}"
            )
        if token_type_ids is None:
            token_type_ids = np.zeros_like(input_ids)
        positions = np.broadcast_to(np.arange(seq), (batch, seq))
        if layout is not None:
            input_ids, token_type_ids, positions = (
                layout.pack(grid) for grid in (input_ids, token_type_ids, positions))
        embedded = (
            self.word_embeddings(input_ids)
            + self.position_embeddings(positions)
            + self.token_type_embeddings(np.asarray(token_type_ids))
        )
        if self.training and self.config.embedding_noise_std > 0.0:
            noise = self._noise_rng.normal(
                0.0, self.config.embedding_noise_std, size=embedded.shape
            )
            embedded = embedded + Tensor(noise)
        return self.dropout(self.norm(embedded))
