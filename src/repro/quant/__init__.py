"""Whole-model quantization methods and the spec registry that names them.

The paper's baselines (Q8BERT, Q-BERT), GOBO itself, and the post-training
method zoo grown from the related work (zero-shot dynamic, gradient-aware
outliers, mixed-precision allocation) — each an
:class:`EngineBackedQuantizer` whose ``quantize`` returns a
:class:`~repro.core.model_quantizer.QuantizedModel`, named by the
``family[-option...]`` spec grammar of :mod:`repro.quant.registry`.
"""

from repro.quant.base import EngineBackedQuantizer
from repro.quant.gobo_adapter import GoboModelQuantizer
from repro.quant.gwq import GwqQuantizer
from repro.quant.mixedbits import MixedBitsQuantizer, allocate_bits
from repro.quant.q8bert import (
    Q8BertQuantizer,
    symmetric_dequantize,
    symmetric_quantize,
)
from repro.quant.qbert import QBertQuantizer
from repro.quant.registry import (
    TABLE3_SPECS,
    MethodFamily,
    MethodOption,
    available_specs,
    build_quantizer,
    describe_specs,
    parse_spec,
    register,
    unregister,
)
from repro.quant.zeroshot import ZeroShotQuantizer

__all__ = [
    "EngineBackedQuantizer",
    "GoboModelQuantizer",
    "GwqQuantizer",
    "MethodFamily",
    "MethodOption",
    "MixedBitsQuantizer",
    "Q8BertQuantizer",
    "QBertQuantizer",
    "TABLE3_SPECS",
    "ZeroShotQuantizer",
    "allocate_bits",
    "available_specs",
    "build_quantizer",
    "describe_specs",
    "parse_spec",
    "register",
    "symmetric_dequantize",
    "symmetric_quantize",
    "unregister",
]
