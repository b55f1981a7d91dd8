"""Common interface for whole-model weight quantizers.

Every baseline (and GOBO itself, via an adapter) exposes the same contract:
``compress(state_dict, fc_names, embedding_names)`` returns a
:class:`CompressedModel` that can report its compressed byte size and
reconstruct an FP32 state dict.  The Table III comparison iterates over this
interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

BYTES_PER_FP32 = 4


@dataclass(frozen=True)
class CompressedTensor:
    """One tensor's compressed form: reconstructed values + byte cost.

    Baselines differ wildly in storage layout; for comparison purposes each
    reports the reconstructed FP32 array (to evaluate accuracy) and its
    compressed size in bytes (to evaluate compression ratio).
    """

    reconstructed: np.ndarray
    compressed_bytes: int

    @property
    def original_bytes(self) -> int:
        return int(self.reconstructed.size) * BYTES_PER_FP32


@dataclass
class CompressedModel:
    """A model compressed by one method: per-tensor results + passthrough."""

    method: str
    tensors: dict[str, CompressedTensor]
    fp32: dict[str, np.ndarray]

    def state_dict(self) -> dict[str, np.ndarray]:
        """Reconstructed FP32 state dict (plug-in compatible decode)."""
        state = {name: value.copy() for name, value in self.fp32.items()}
        for name, tensor in self.tensors.items():
            state[name] = tensor.reconstructed.copy()
        return state

    def compression_ratio(self) -> float:
        """FP32-vs-compressed ratio over the tensors the method touched."""
        original = sum(t.original_bytes for t in self.tensors.values())
        compressed = sum(t.compressed_bytes for t in self.tensors.values())
        return original / compressed if compressed else float("inf")

    def compressed_bytes(self) -> int:
        return sum(t.compressed_bytes for t in self.tensors.values())


class ModelQuantizer(Protocol):
    """The interface Table III's method comparison iterates over."""

    name: str
    requires_finetuning: bool

    def compress(
        self,
        state: dict[str, np.ndarray],
        fc_names: tuple[str, ...],
        embedding_names: tuple[str, ...],
    ) -> CompressedModel:
        """Compress the named tensors of ``state``; pass the rest through."""
        ...


class EngineBackedQuantizer:
    """Base for quantizers that run through the layer-parallel engine.

    Subclasses implement :meth:`engine_options` — the keyword arguments that
    pick their tensor method, bit widths and any per-layer side data — and
    inherit a full-featured :meth:`quantize` (deterministic, durable,
    fault-policy-aware) plus the :class:`ModelQuantizer`
    ``compress`` contract for the Table III harness.  Everything downstream
    of the engine (serialization format v3, jobs, serving) works unchanged
    for every subclass.
    """

    name: str = "engine"
    requires_finetuning: bool = False

    def engine_options(
        self,
        state: dict[str, np.ndarray],
        fc_names: tuple[str, ...],
        embedding_names: tuple[str, ...],
    ) -> dict:
        """Keyword arguments for ``quantize_state_dict`` (method, bits, aux)."""
        raise NotImplementedError

    def quantize(
        self,
        state: dict[str, np.ndarray],
        fc_names: tuple[str, ...],
        embedding_names: tuple[str, ...] = (),
        *,
        workers: int | None = None,
        on_error: str | None = "fail",
        validation: str = "strict",
        fault_injector=None,
        layer_timeout: float | None = None,
        transient_retries: int | None = None,
        cancel=None,
        job=None,
    ):
        """Run this method through the engine, returning a ``QuantizedModel``.

        ``job`` (a :class:`repro.jobs.runner.DurableJob`) makes the run
        durable and resumable, as for ``quantize_state_dict``.
        """
        # Lazy import: repro.quant must stay importable without dragging in
        # the whole engine (plug-in tensor-method modules import the other way).
        from repro.core.model_quantizer import quantize_state_dict

        options = self.engine_options(state, fc_names, embedding_names)
        return quantize_state_dict(
            state,
            fc_names=fc_names,
            embedding_names=embedding_names,
            workers=workers,
            on_error=on_error,
            validation=validation,
            fault_injector=fault_injector,
            layer_timeout=layer_timeout,
            transient_retries=transient_retries,
            cancel=cancel,
            job=job,
            **options,
        )

    def compress(
        self,
        state: dict[str, np.ndarray],
        fc_names: tuple[str, ...],
        embedding_names: tuple[str, ...] = (),
        workers: int | None = None,
    ) -> CompressedModel:
        quantized = self.quantize(state, fc_names, embedding_names, workers=workers)
        tensors = {
            name: CompressedTensor(
                reconstructed=tensor.dequantize(dtype=np.float64),
                compressed_bytes=tensor.storage().compressed_bytes,
            )
            for name, tensor in quantized.quantized.items()
        }
        return CompressedModel(method=self.name, tensors=tensors, fp32=dict(quantized.fp32))
