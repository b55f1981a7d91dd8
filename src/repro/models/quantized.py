"""Wire a :class:`~repro.core.model_quantizer.QuantizedModel` into a live
network so inference runs on the compressed representation.

:func:`attach_quantized_linears` swaps the module of every quantized
tensor: each FC ``Linear`` for a :class:`~repro.nn.QuantizedLinear`, whose
tiled decode-and-GEMM kernel (:mod:`repro.kernels`) keeps grouped centroid
indexes and a small tuple table resident (no more than one code per weight
would take) instead of the FP32 matrix, and each embedding table for a
:class:`~repro.nn.QuantizedEmbedding`, whose row gather decodes only the
rows a forward looks up through the same kind of kernel.  No quantized
tensor is ever decoded, neither at attach nor during a forward — asserted
in the tests via the ``quantizer.dequantize_calls`` obs counter — while
everything GOBO leaves FP32 (biases, LayerNorm, heads) is loaded as usual.
:func:`resident_bytes` is what the attached model keeps in memory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import QuantizationError
from repro.kernels import LookupKernel
from repro.nn.layers import Embedding, Linear
from repro.nn.module import Module
from repro.nn.qembedding import QuantizedEmbedding
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
    """Swap the module of every tensor in ``qmodel.quantized`` for its
    compressed counterpart, then load the FP32 rest of ``qmodel``.

    Two phases:

    1. Every quantized ``<module>.weight`` has its module replaced: a
       ``Linear`` by a ``QuantizedLinear`` and an ``Embedding`` by a
       ``QuantizedEmbedding``, each wrapping the compressed tensor, so
       forwards compute on the codes with no FP32 weight resident.  A
       quantized tensor whose module is neither raises
       :class:`~repro.errors.QuantizationError`.
    2. The FP32 passthrough parameters (biases included) are loaded with
       the strict key check.  A swapped module owns no ``weight``
       Parameter, so no quantized tensor is expected, and none is decoded.

    A layer that fell back to FP32 has its weight in ``qmodel.fp32`` and
    keeps its ``Linear``.  Returns ``model`` in eval mode with every
    parameter frozen (``requires_grad`` False): both compressed modules are
    inference-only, so no forward of it records an autograd graph.
    """
    for name in qmodel.quantized:
        if not name.endswith(".weight"):
            raise QuantizationError(f"quantized parameter {name!r} is not a .weight tensor")
        path = name[: -len(".weight")]
        parent, attr = _resolve(model, path)
        module = parent._modules.get(attr)
        tensor = qmodel.quantized[name]
        if isinstance(module, Linear):
            setattr(parent, attr, QuantizedLinear.from_linear(module, tensor))
        elif isinstance(module, Embedding):
            setattr(parent, attr, QuantizedEmbedding.from_embedding(module, tensor))
        else:
            raise QuantizationError(
                f"expected a Linear or an Embedding at {path!r}, got "
                f"{type(module).__name__}"
            )
    model.load_state_dict(qmodel.fp32)
    for param in model.parameters():
        param.requires_grad = False
    return model.eval()


def resident_bytes(model: Module) -> int:
    """Bytes ``model`` keeps resident: the prepared state of every
    :class:`~repro.kernels.LookupKernel` it holds plus its parameters."""
    total = 0
    for _, module in model.named_modules():
        kernel = getattr(module, "kernel", None)
        if isinstance(kernel, LookupKernel):
            total += kernel.prepared_nbytes
    return total + sum(param.data.nbytes for param in model.parameters())
