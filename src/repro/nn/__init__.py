"""NumPy deep-learning substrate: autograd tensors, layers, attention."""

from repro.nn import functional
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import Dropout, Embedding, LayerNorm, Linear
from repro.nn.module import Module, ModuleList, Parameter
from repro.nn.qembedding import QuantizedEmbedding
from repro.nn.qlinear import QuantizedLinear
from repro.nn.tensor import Tensor, as_tensor, stack
from repro.nn.transformer import BertEncoderLayer

__all__ = [
    "BertEncoderLayer",
    "Dropout",
    "Embedding",
    "LayerNorm",
    "Linear",
    "Module",
    "ModuleList",
    "MultiHeadSelfAttention",
    "Parameter",
    "QuantizedEmbedding",
    "QuantizedLinear",
    "Tensor",
    "as_tensor",
    "functional",
    "stack",
]
