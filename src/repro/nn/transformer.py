"""The BERT encoder layer (Figure 1a): Attention, Intermediate, Output.

Per Table I of the paper, one BERT layer contributes six FC layers:
four ``hidden x hidden`` in attention, one ``hidden x intermediate``
(Intermediate) and one ``intermediate x hidden`` (Output).  Each component
ends with a residual connection and layer normalization.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.attention import MultiHeadSelfAttention, TokenLayout
from repro.nn.layers import Dropout, LayerNorm, Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.utils.rng import derive_rng


class BertEncoderLayer(Module):
    """One transformer encoder block with BERT's post-layer-norm layout."""

    def __init__(
        self,
        hidden_size: int,
        intermediate_size: int,
        num_heads: int,
        dropout_rate: float = 0.0,
        rng: int | np.random.Generator | None = None,
        init_std: float = 0.02,
    ) -> None:
        super().__init__()
        self.attention = MultiHeadSelfAttention(
            hidden_size, num_heads, dropout_rate,
            rng=derive_rng(rng, "attention"), init_std=init_std,
        )
        self.attention_norm = LayerNorm(hidden_size)
        self.intermediate = Linear(
            hidden_size, intermediate_size,
            rng=derive_rng(rng, "intermediate"), init_std=init_std,
        )
        self.output = Linear(
            intermediate_size, hidden_size,
            rng=derive_rng(rng, "output"), init_std=init_std,
        )
        self.output_norm = LayerNorm(hidden_size)
        self.dropout = Dropout(dropout_rate, rng=derive_rng(rng, "dropout"))

    def forward(
        self,
        hidden: Tensor,
        attention_mask: np.ndarray | None = None,
        layout: TokenLayout | None = None,
    ) -> Tensor:
        """``(batch, seq, hidden)`` states in and out by default; under
        ``layout`` its states in and its query rows out (see
        :class:`~repro.nn.attention.TokenLayout`)."""
        if layout is None:
            layout = TokenLayout.grid(hidden)
        attended = self.attention(hidden, attention_mask, layout)
        attended = self.dropout(attended)
        hidden = self.attention_norm(layout.queries(hidden) + attended)

        transformed = self.output(F.gelu(self.intermediate(hidden)))
        transformed = self.dropout(transformed)
        return self.output_norm(hidden + transformed)
