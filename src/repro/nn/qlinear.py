"""Inference-time Linear that computes on the compressed representation.

:class:`QuantizedLinear` is the module-level face of :mod:`repro.kernels`:
it wraps one :class:`~repro.core.quantizer.GoboQuantizedTensor` and routes
the forward pass through a prepared :class:`~repro.kernels.LookupKernel`,
so ``y = x W^T + b`` runs on resident centroid indexes (one per group of
up to four codes, with a per-layer table of the centroid tuples they name:
no more than one code per weight would take) plus the FP32 outliers,
decoding a cache-sized band of ``W`` at a time and never the whole FP32
weight matrix.  The bias (which GOBO leaves FP32) stays a plain
:class:`~repro.nn.module.Parameter`.  :class:`~repro.nn.QuantizedEmbedding`
is its counterpart for the embedding tables.

It is deliberately inference-only: GOBO quantizes *trained* models, and the
paper's latency/energy numbers are for serving.  Calling it in training
mode raises instead of silently detaching the graph.
"""

from __future__ import annotations

import numpy as np

from repro.core.quantizer import GoboQuantizedTensor
from repro.errors import ShapeError
from repro.kernels import LookupKernel
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


class QuantizedLinear(Module):
    """``y = x W^T + b`` where ``W`` stays in GOBO's compressed form.

    Parameters
    ----------
    tensor:
        The quantized weight, shape ``(out_features, in_features)`` — the
        same layout as :class:`repro.nn.Linear.weight`.
    bias:
        FP32 bias vector of length ``out_features``; zeros when omitted.

    The compressed tensor is not a :class:`Parameter` (it is not trainable
    and must not be decoded into a state dict); only the bias is registered,
    so ``named_parameters`` reflects exactly what remains FP32.
    """

    def __init__(
        self, tensor: GoboQuantizedTensor, bias: np.ndarray | None = None
    ) -> None:
        super().__init__()
        if len(tensor.shape) != 2:
            raise ShapeError(
                f"QuantizedLinear requires a 2-D weight tensor, got shape {tensor.shape}"
            )
        self.out_features, self.in_features = tensor.shape
        self.tensor = tensor
        self.kernel = LookupKernel(tensor)
        if bias is None:
            bias = np.zeros(self.out_features, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if bias.shape != (self.out_features,):
            raise ShapeError(
                f"QuantizedLinear bias must have shape ({self.out_features},), "
                f"got {bias.shape}"
            )
        self.bias = Parameter(bias)
        self.training = False

    @classmethod
    def from_linear(cls, linear: Module, tensor: GoboQuantizedTensor) -> "QuantizedLinear":
        """Build from an existing :class:`~repro.nn.Linear`, keeping its bias.

        A bias-free layer (``linear.bias is None``, as in some projection
        heads) falls back to the zero bias the constructor supplies.
        """
        if tuple(tensor.shape) != tuple(linear.weight.shape):
            raise ShapeError(
                f"quantized tensor shape {tensor.shape} does not match "
                f"Linear weight shape {tuple(linear.weight.shape)}"
            )
        bias = getattr(linear, "bias", None)
        return cls(tensor, bias=None if bias is None else bias.data.copy())

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            raise RuntimeError(
                "QuantizedLinear is inference-only (GOBO quantizes trained "
                "models); call model.eval() before the forward pass"
            )
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        # The kernel's output is fresh and float64 (a float32 one becomes a
        # float64 copy in the Tensor), so the bias goes in place.
        y = Tensor(self.kernel.matmul(data))
        y.data += self.bias.data
        return y

    def compression_ratio(self) -> float:
        return self.tensor.compression_ratio()
