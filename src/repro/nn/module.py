"""``Module``/``Parameter`` abstractions, mirroring the PyTorch conventions
the original GOBO implementation was built against.

A :class:`Module` owns named :class:`Parameter` tensors and child modules, and
exposes ``named_parameters`` with dotted paths (``encoder.layer.0.attention.
query.weight``).  The quantizers operate on that flat named view, exactly the
way GOBO operates on a HuggingFace ``state_dict``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn.tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor: it requires grad until frozen, as
    :func:`~repro.models.attach_quantized_linears` freezes a served model's."""

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        super().__init__(np.asarray(data, dtype=np.float64), requires_grad=True, name=name)


class Module:
    """Base class for all network components."""

    def __init__(self) -> None:
        self._parameters: dict[str, Parameter] = {}
        self._modules: dict[str, "Module"] = {}
        self.training = True

    # ----------------------------------------------------------- registration
    def __setattr__(self, key: str, value: object) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[key] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[key] = value
        object.__setattr__(self, key, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Register a child module under ``name`` (for list-like containers)."""
        self._modules[name] = module

    # -------------------------------------------------------------- traversal
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """All parameters with dotted path names, depth first."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------ state dicts
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of all parameter arrays keyed by dotted path."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter arrays produced by :meth:`state_dict` (strict)."""
        params = dict(self.named_parameters())
        missing = sorted(set(params) - set(state))
        unexpected = sorted(set(state) - set(params))
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={missing}, unexpected={unexpected}")
        for name, value in state.items():
            param = params[name]
            value = np.asarray(value, dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {param.data.shape}, got {value.shape}"
                )
            param.data = value.copy()

    # ------------------------------------------------------------------ modes
    def train(self) -> "Module":
        """Enable training mode (dropout active) for self and children."""
        for _, module in self.named_modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        """Enable inference mode (dropout disabled) for self and children."""
        for _, module in self.named_modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def named_gradients(self) -> dict[str, np.ndarray]:
        """Gradient arrays keyed by dotted path, after a ``backward`` call.

        Parameters the backward pass never reached report zeros (their
        sensitivity really is zero for that loss), so consumers like GWQ's
        saliency ranking can treat the result as a dense gradient view of
        :meth:`state_dict`.
        """
        return {
            name: (
                np.zeros_like(param.data)
                if param.grad is None
                else np.array(param.grad, dtype=np.float64, copy=True)
            )
            for name, param in self.named_parameters()
        }

    # ------------------------------------------------------------------- call
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """An indexable container of child modules."""

    def __init__(self, modules: list[Module] | None = None) -> None:
        super().__init__()
        self._order: list[str] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> None:
        name = str(len(self._order))
        self.register_module(name, module)
        self._order.append(name)

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Module]:
        return (self._modules[name] for name in self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]
