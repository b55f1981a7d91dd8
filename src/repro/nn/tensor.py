"""A minimal reverse-mode autograd engine over NumPy arrays.

This is the substrate that replaces PyTorch in this reproduction: enough of a
tensor library to express BERT's forward pass (matmul, layernorm, softmax,
GELU, embedding lookup) and to backpropagate through it so that the small
evaluation models can be fine-tuned on the synthetic tasks.

Design notes
------------
* ``Tensor`` wraps a ``float64`` (default) NumPy array plus an optional
  gradient and a backward closure.  The graph is a classic tape: each op
  records its parents and how to push gradients to them.
* Broadcasting follows NumPy semantics; gradients of broadcast operands are
  reduced back to the operand's shape by :func:`_unbroadcast`.
* Only ops needed by the models are implemented — this is a substrate, not a
  framework.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.errors import ShapeError

Array = np.ndarray


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape`` (inverse of NumPy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed tensor with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: Array | float | int | list,
        requires_grad: bool = False,
        name: str = "",
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[], None] | None = None
        self._parents: tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------ basics
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{grad_flag}{label})"

    def numpy(self) -> Array:
        """The underlying array (not a copy; treat as read-only)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """A new tensor sharing data but cut from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # --------------------------------------------------------------- graph ops
    def _make_child(
        self, data: Array, parents: Iterable["Tensor"], backward: Callable[[], None]
    ) -> "Tensor":
        """The tensor holding an op's result ``data``.

        It goes on the tape, with its ``parents`` and ``backward``, only
        when some parent requires grad.  ``backward`` reads the child's
        gradient through the op's ``out`` variable, so keeping it on a child
        off the tape would make a reference cycle per op: an inference
        forward would leave every intermediate array to the cyclic garbage
        collector instead of freeing it when dropped.
        """
        parents = tuple(parents)
        child = Tensor(data)
        for parent in parents:  # a loop, not any(genexpr): a forward makes ~100 children
            if parent.requires_grad:
                child.requires_grad, child._parents, child._backward = True, parents, backward
                break
        return child

    def _accumulate(self, grad: Array) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: Array | None = None) -> None:
        """Backpropagate from this tensor through the recorded tape."""
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise ShapeError("backward() without a gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        # Topological order via iterative DFS (deep graphs would overflow
        # Python's recursion limit for large encoder stacks).
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(np.broadcast_to(grad, self.data.shape))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward()

    # ------------------------------------------------------------- arithmetic
    def __add__(self, other: "Tensor | float") -> "Tensor":
        other = as_tensor(other)

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad, other.shape))

        out = self._make_child(self.data + other.data, (self, other), backward)
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward() -> None:
            if self.requires_grad:
                self._accumulate(-out.grad)

        out = self._make_child(-self.data, (self,), backward)
        return out

    def __sub__(self, other: "Tensor | float") -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other: "Tensor | float") -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other: "Tensor | float") -> "Tensor":
        other = as_tensor(other)

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad * self.data, other.shape))

        out = self._make_child(self.data * other.data, (self, other), backward)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: "Tensor | float") -> "Tensor":
        other = as_tensor(other)

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-out.grad * self.data / (other.data**2), other.shape)
                )

        out = self._make_child(self.data / other.data, (self, other), backward)
        return out

    def __rtruediv__(self, other: "Tensor | float") -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

        out = self._make_child(self.data**exponent, (self,), backward)
        return out

    # ------------------------------------------------------------ linear algebra
    def matmul(self, other: "Tensor") -> "Tensor":
        other = as_tensor(other)

        def backward() -> None:
            if self.requires_grad:
                grad = out.grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                grad = np.swapaxes(self.data, -1, -2) @ out.grad
                other._accumulate(_unbroadcast(grad, other.shape))

        out = self._make_child(self.data @ other.data, (self, other), backward)
        return out

    __matmul__ = matmul

    # -------------------------------------------------------------- reductions
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        def backward() -> None:
            if not self.requires_grad:
                return
            grad = out.grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                for ax in sorted(a % self.data.ndim for a in axes):
                    grad = np.expand_dims(grad, ax)
            self._accumulate(np.broadcast_to(grad, self.data.shape))

        out = self._make_child(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)
        return out

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=True)

        def backward() -> None:
            if not self.requires_grad:
                return
            grad = out.grad if keepdims else np.expand_dims(out.grad, axis)
            mask = self.data == data
            # Split the gradient among ties, matching the subgradient convention.
            counts = mask.sum(axis=axis, keepdims=True)
            self._accumulate(mask * grad / counts)

        out = self._make_child(data if keepdims else np.squeeze(data, axis=axis), (self,), backward)
        return out

    # ----------------------------------------------------------- shape plumbing
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad.reshape(self.data.shape))

        out = self._make_child(self.data.reshape(shape), (self,), backward)
        return out

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))

        def backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad.transpose(np.argsort(axes)))

        out = self._make_child(self.data.transpose(axes), (self,), backward)
        return out

    def swapaxes(self, a: int, b: int) -> "Tensor":
        def backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad.swapaxes(a, b))

        out = self._make_child(self.data.swapaxes(a, b), (self,), backward)
        return out

    def __getitem__(self, index) -> "Tensor":
        def backward() -> None:
            if self.requires_grad:
                grad = np.zeros_like(self.data)
                np.add.at(grad, index, out.grad)
                self._accumulate(grad)

        out = self._make_child(self.data[index], (self,), backward)
        return out

    # ---------------------------------------------------------- element-wise ops
    def exp(self) -> "Tensor":
        def backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * out.data)

        out = self._make_child(np.exp(self.data), (self,), backward)
        return out

    def log(self) -> "Tensor":
        def backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad / self.data)

        out = self._make_child(np.log(self.data), (self,), backward)
        return out

    def tanh(self) -> "Tensor":
        def backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * (1.0 - out.data**2))

        out = self._make_child(np.tanh(self.data), (self,), backward)
        return out

    def sqrt(self) -> "Tensor":
        return self**0.5


def as_tensor(value: "Tensor | Array | float | int | list") -> Tensor:
    """Coerce plain values to (non-differentiable) tensors."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient support."""
    if not tensors:
        raise ShapeError("stack requires at least one tensor")
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward() -> None:
        grads = np.split(out.grad, len(tensors), axis=axis)
        for tensor, grad in zip(tensors, grads):
            if tensor.requires_grad:
                tensor._accumulate(np.squeeze(grad, axis=axis))

    out = tensors[0]._make_child(data, tensors, backward)
    return out
