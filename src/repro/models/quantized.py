"""Wire a :class:`~repro.core.model_quantizer.QuantizedModel` into a live
network so inference runs on the compressed representation.

:func:`attach_quantized_linears` swaps every quantized FC ``Linear`` for a
:class:`~repro.nn.QuantizedLinear`, whose tiled decode-and-GEMM kernel
(:mod:`repro.kernels`) keeps grouped centroid indexes and a small tuple
table resident (no more than one code per weight would take) instead of
the FP32 matrix.  The FC weights are never decoded, neither at attach nor
during a forward — asserted in the tests via the
``quantizer.dequantize_calls`` obs counter — while everything GOBO leaves
FP32 (biases, LayerNorm, heads) and the quantized embeddings are loaded as
usual.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import QuantizationError
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.qlinear import QuantizedLinear

if TYPE_CHECKING:  # imported lazily to break the models <-> core cycle
    from repro.core.model_quantizer import QuantizedModel


def _resolve(model: Module, dotted: str) -> tuple[Module, str]:
    """Walk ``dotted`` (e.g. ``encoder.0.attention.query``) to its parent
    module and final attribute name."""
    parts = dotted.split(".")
    module = model
    for part in parts[:-1]:
        child = module._modules.get(part)
        if child is None:
            raise QuantizationError(f"model has no submodule {part!r} on path {dotted!r}")
        module = child
    return module, parts[-1]


def attach_quantized_linears(model: Module, qmodel: QuantizedModel) -> Module:
    """Swap ``model``'s quantized FC layers for
    :class:`~repro.nn.QuantizedLinear` modules, then load the rest of
    ``qmodel`` into it.

    Two phases:

    1. Every FC weight present in ``qmodel.quantized`` has its ``Linear``
       replaced by a ``QuantizedLinear`` wrapping the compressed tensor, so
       forwards compute on the codes with no FP32 weight matrix resident.
    2. The FP32 passthrough parameters (biases included) and the quantized
       tensors that were not swapped in (embeddings) are loaded with the
       strict key check.  A swapped module owns no ``weight`` Parameter,
       so the FC weights are neither expected nor decoded: the embeddings
       are the only tensors this dequantizes.

    A layer that fell back to FP32 has its weight in ``qmodel.fp32`` and
    keeps its ``Linear``.  Returns ``model`` in eval mode
    (``QuantizedLinear`` is inference-only).
    """
    swapped = set()
    for name in qmodel.fc_names:
        tensor = qmodel.quantized.get(name)
        if tensor is None:  # fp32-fallback or dropped layer: leave the Linear.
            continue
        if not name.endswith(".weight"):
            raise QuantizationError(f"FC parameter {name!r} is not a .weight tensor")
        parent, attr = _resolve(model, name[: -len(".weight")])
        linear = parent._modules.get(attr)
        if not isinstance(linear, Linear):
            raise QuantizationError(
                f"expected a Linear at {name[: -len('.weight')]!r}, got "
                f"{type(linear).__name__}"
            )
        setattr(parent, attr, QuantizedLinear.from_linear(linear, tensor))
        swapped.add(name)
    state = dict(qmodel.fp32)
    for name in qmodel.quantized:
        if name not in swapped:
            state[name] = qmodel.quantized[name].dequantize(dtype=np.float64)
    model.load_state_dict(state)
    return model.eval()
