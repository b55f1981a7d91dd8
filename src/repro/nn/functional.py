"""Composite differentiable operations used by the transformer models."""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ShapeError
from repro.nn.tensor import Tensor

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """Gaussian Error Linear Unit (tanh approximation, as in the BERT release)."""
    # Cube by multiplication: numpy's x**3 runs a slow scalar pow on negative bases.
    inner = np.multiply(x.data, x.data, out=np.empty_like(x.data))  # an array, even 0-d
    inner *= x.data
    inner *= 0.044715
    inner += x.data
    inner *= _SQRT_2_OVER_PI
    t = np.tanh(inner, out=inner)
    out = x._make_child(0.5 * x.data * (1.0 + t), (x,))

    def backward() -> None:
        if not x.requires_grad:
            return
        d_inner = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * x.data**2)
        grad = 0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t**2) * d_inner
        x._accumulate(out.grad * grad)

    out._backward = backward
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=axis, keepdims=True)
    out = x._make_child(probs, (x,))

    def backward() -> None:
        if not x.requires_grad:
            return
        dot = (out.grad * probs).sum(axis=axis, keepdims=True)
        x._accumulate(probs * (out.grad - dot))

    out._backward = backward
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = x._make_child(log_probs, (x,))

    def backward() -> None:
        if not x.requires_grad:
            return
        probs = np.exp(log_probs)
        x._accumulate(out.grad - probs * out.grad.sum(axis=axis, keepdims=True))

    out._backward = backward
    return out


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """Layer normalization over the last axis (BERT uses ``eps=1e-12``)."""
    if weight.shape != (x.shape[-1],) or bias.shape != (x.shape[-1],):
        raise ShapeError(
            f"layer_norm params must match last dim {x.shape[-1]}, "
            f"got weight {weight.shape}, bias {bias.shape}"
        )
    # Centre once: np.var's second pass is the mean square of this array.
    x_hat = x.data - x.data.mean(axis=-1, keepdims=True)
    var = np.square(x_hat).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat *= inv_std
    out = x._make_child(x_hat * weight.data + bias.data, (x, weight, bias))

    def backward() -> None:
        grad = out.grad
        if weight.requires_grad:
            weight._accumulate((grad * x_hat).reshape(-1, x.shape[-1]).sum(axis=0))
        if bias.requires_grad:
            bias._accumulate(grad.reshape(-1, x.shape[-1]).sum(axis=0))
        if x.requires_grad:
            n = x.shape[-1]
            g = grad * weight.data
            term1 = g
            term2 = g.mean(axis=-1, keepdims=True)
            term3 = x_hat * (g * x_hat).mean(axis=-1, keepdims=True)
            x._accumulate(inv_std * (term1 - term2 - term3))

    out._backward = backward
    return out


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of ``table`` by integer ``ids`` (any shape of ids)."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise TypeError(f"embedding ids must be integers, got {ids.dtype}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(
            f"embedding ids out of range [0, {table.shape[0]}): "
            f"min={ids.min()}, max={ids.max()}"
        )
    out = table._make_child(table.data[ids], (table,))

    def backward() -> None:
        if table.requires_grad:
            grad = np.zeros_like(table.data)
            np.add.at(grad, ids.ravel(), out.grad.reshape(-1, table.shape[-1]))
            table._accumulate(grad)

    out._backward = backward
    return out


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: identity when ``training`` is False or ``rate`` is 0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep) / keep
    out = x._make_child(x.data * mask, (x,))

    def backward() -> None:
        if x.requires_grad:
            x._accumulate(out.grad * mask)

    out._backward = backward
    return out


def masked_fill(x: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Set positions where ``mask`` is True to ``value`` (no grad through them)."""
    mask = np.asarray(mask, dtype=bool)
    data = np.where(mask, value, x.data)
    out = x._make_child(data, (x,))

    def backward() -> None:
        if x.requires_grad:
            x._accumulate(np.where(mask, 0.0, out.grad))

    out._backward = backward
    return out
