"""The BERT encoder model: embeddings, encoder stack, pooler.

The parameter naming follows the HuggingFace layout that GOBO's per-layer
quantization keys on, e.g. ``encoder.2.attention.value.weight`` or
``embeddings.word_embeddings.weight``.
"""

from __future__ import annotations

import numpy as np

from repro.models.config import BertConfig
from repro.models.embeddings import BertEmbeddings
from repro.nn.attention import TokenLayout
from repro.nn.layers import Linear
from repro.nn.module import Module, ModuleList
from repro.nn.tensor import Tensor
from repro.nn.transformer import BertEncoderLayer
from repro.utils.rng import derive_rng


class BertModel(Module):
    """Encoder-only transformer with a tanh pooler over the [CLS] position."""

    def __init__(self, config: BertConfig, rng: int | np.random.Generator | None = None) -> None:
        super().__init__()
        self.config = config
        self.embeddings = BertEmbeddings(config, rng=derive_rng(rng, "embeddings"))
        self.encoder = ModuleList(
            [
                BertEncoderLayer(
                    config.hidden_size,
                    config.intermediate_size,
                    config.num_heads,
                    config.dropout_rate,
                    rng=derive_rng(rng, "layer", index),
                    init_std=config.initializer_std,
                )
                for index in range(config.num_layers)
            ]
        )
        self.pooler = Linear(
            config.hidden_size,
            config.hidden_size,
            rng=derive_rng(rng, "pooler"),
            init_std=config.initializer_std,
        )

    def forward(
        self,
        input_ids: np.ndarray,
        attention_mask: np.ndarray | None = None,
        token_type_ids: np.ndarray | None = None,
        pooled_only: bool = False,
    ) -> tuple[Tensor | None, Tensor]:
        """Encode token ids.

        ``pooled_only=True`` computes only what the pooled output needs:
        every layer runs on the packed rows of the real tokens (mask not 0)
        and each row's [CLS] cell, and the last layer's query, attention
        output, FFN and LayerNorms run on the [CLS] rows alone (see
        :class:`~repro.nn.attention.TokenLayout`).  The pooled output then
        differs from the dense forward's only by BLAS summation order over
        the other row counts.  A row with no unmasked position raises
        :class:`~repro.errors.ShapeError`.

        Returns
        -------
        (sequence_output, pooled_output):
            ``(batch, seq, hidden)`` final hidden states (None under
            ``pooled_only``), and the pooled ``(batch, hidden)``
            representation of the first ([CLS]) token.
        """
        layout = TokenLayout(np.shape(input_ids), attention_mask if pooled_only else None)
        hidden = self.embeddings(input_ids, token_type_ids, layout)
        for depth, layer in enumerate(self.encoder, 1):
            if pooled_only and depth == len(self.encoder):
                layout = layout.cls_queries()
            hidden = layer(hidden, attention_mask, layout)
        if pooled_only:
            return None, self.pooler(hidden).tanh()
        return hidden, self.pooler(hidden[:, 0, :]).tanh()

    # ----------------------------------------------------------- introspection
    def fc_parameter_names(self) -> list[str]:
        """Dotted names of all FC weight matrices (the tensors GOBO quantizes).

        Matches the paper's census: 6 per encoder layer plus the pooler.
        Biases, LayerNorm parameters and embeddings are excluded.
        """
        names = []
        for index in range(self.config.num_layers):
            prefix = f"encoder.{index}"
            names.extend(
                [
                    f"{prefix}.attention.query.weight",
                    f"{prefix}.attention.key.weight",
                    f"{prefix}.attention.value.weight",
                    f"{prefix}.attention.output.weight",
                    f"{prefix}.intermediate.weight",
                    f"{prefix}.output.weight",
                ]
            )
        names.append("pooler.weight")
        return names

    def embedding_parameter_names(self) -> list[str]:
        """Dotted names of the embedding tables (quantized in Table VII)."""
        return [
            "embeddings.word_embeddings.weight",
            "embeddings.position_embeddings.weight",
            "embeddings.token_type_embeddings.weight",
        ]
