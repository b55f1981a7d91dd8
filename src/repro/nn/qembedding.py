"""Inference-time Embedding that looks rows up in the compressed table.

:class:`QuantizedEmbedding` is the embedding counterpart of
:class:`~repro.nn.QuantizedLinear`: its lookup runs through
:meth:`~repro.kernels.LookupKernel.gather`, which decodes only the
requested rows, so a served model keeps GOBO's 3-4-bit embedding codes
resident (paper §IV, Table VII) instead of a float64 ``vocab x hidden``
table.  It owns no ``weight`` Parameter, and calling it in training mode
raises.
"""

from __future__ import annotations

import numpy as np

from repro.core.quantizer import GoboQuantizedTensor
from repro.errors import ShapeError
from repro.kernels import LookupKernel
from repro.nn.module import Module
from repro.nn.tensor import Tensor


class QuantizedEmbedding(Module):
    """``table[ids]`` for a quantized ``(num_embeddings, embedding_dim)``
    table, the layout of :class:`repro.nn.Embedding.weight`; the rows equal
    the decoded table's bit for bit."""

    def __init__(self, tensor: GoboQuantizedTensor) -> None:
        super().__init__()
        self.kernel = LookupKernel(tensor)
        self.num_embeddings, self.embedding_dim = tensor.shape
        self.training = False

    @classmethod
    def from_embedding(
        cls, embedding: Module, tensor: GoboQuantizedTensor
    ) -> "QuantizedEmbedding":
        """Build the replacement for ``embedding`` from its quantized table."""
        if tuple(tensor.shape) != tuple(embedding.weight.shape):
            raise ShapeError(
                f"quantized tensor shape {tensor.shape} does not match "
                f"Embedding weight shape {tuple(embedding.weight.shape)}"
            )
        return cls(tensor)

    def forward(self, ids: np.ndarray) -> Tensor:
        if self.training:
            raise RuntimeError(
                "QuantizedEmbedding is inference-only (GOBO quantizes trained "
                "models); call model.eval() before the forward pass"
            )
        return Tensor(self.kernel.gather(ids))
