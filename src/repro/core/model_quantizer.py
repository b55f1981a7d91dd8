"""Whole-model quantization: apply GOBO per layer across a network.

GOBO "operates at the granularity of a layer and over the trained model": for
each FC weight matrix (and optionally each embedding table) it runs the
outlier split + centroid selection of :mod:`repro.core.quantizer` with one
reconstruction table per layer.  Everything else (biases, LayerNorm, task
heads) stays FP32, matching the paper's setup.

The result is a :class:`QuantizedModel` that can

* report byte-accurate compression ratios (Table III/VII numbers), and
* reconstruct a plain FP32 ``state_dict`` — the "plug-in compatible" decode
  the paper highlights — to load back into any model of the same
  architecture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.formats import BYTES_PER_FP32, StorageReport
from repro.core.outliers import DEFAULT_LOG_PROB_THRESHOLD
from repro.core.parallel import (
    FaultInjector,
    LayerJob,
    QuantizationReport,
    quantize_layers,
)
from repro.core.policy import LayerPolicy
from repro.core.quantizer import GoboQuantizedTensor
from repro.errors import QuantizationError
from repro.models.bert import BertModel
from repro.nn.module import Module
from repro.obs import recorder as obs

if TYPE_CHECKING:
    from repro.jobs.runner import DurableJob


@dataclass(frozen=True)
class ParameterSelection:
    """Which parameters of a model get quantized."""

    fc_names: tuple[str, ...]
    embedding_names: tuple[str, ...]


def select_parameters(model: Module) -> ParameterSelection:
    """Locate the FC weight matrices and embedding tables of ``model``.

    Works for a bare :class:`BertModel` or any head wrapping one (the head's
    own parameters stay FP32, as in the paper where heads are task-added and
    tiny).
    """
    for prefix, module in model.named_modules():
        if isinstance(module, BertModel):
            dotted = f"{prefix}." if prefix else ""
            fc = tuple(f"{dotted}{name}" for name in module.fc_parameter_names())
            emb = tuple(f"{dotted}{name}" for name in module.embedding_parameter_names())
            return ParameterSelection(fc_names=fc, embedding_names=emb)
    raise QuantizationError("model does not contain a BertModel to quantize")


@dataclass
class QuantizedModel:
    """A GOBO-compressed model: quantized tensors plus untouched FP32 params."""

    quantized: dict[str, GoboQuantizedTensor]
    fp32: dict[str, np.ndarray]
    fc_names: tuple[str, ...]
    embedding_names: tuple[str, ...]
    iterations: dict[str, int] = field(default_factory=dict)
    report: QuantizationReport | None = None

    # ------------------------------------------------------------ reconstruction
    def state_dict(self, dtype: np.dtype | type = np.float64) -> dict[str, np.ndarray]:
        """Reconstructed state dict: dequantized layers + passthrough params.

        Every entry — dequantized and passthrough alike — is returned in
        ``dtype``.  The default float64 matches the in-memory compute
        substrate (bit-exact passthrough); pass ``np.float32`` for the
        paper's decode-target precision.
        """
        state = {name: np.array(value, dtype=dtype) for name, value in self.fp32.items()}
        for name, tensor in self.quantized.items():
            state[name] = tensor.dequantize(dtype=dtype)
        return state

    def apply_to(self, model: Module) -> Module:
        """Load the reconstructed weights into ``model`` and return it.

        The dense reference: serving and the accuracy tables compute on the
        codes instead (:func:`repro.models.attach_quantized_linears`).
        """
        model.load_state_dict(self.state_dict())
        return model

    # ----------------------------------------------------------------- metrics
    def _storage(self, names: tuple[str, ...]) -> tuple[int, int]:
        original = compressed = 0
        for name in names:
            if name not in self.quantized:
                continue
            report: StorageReport = self.quantized[name].storage()
            original += report.original_bytes
            compressed += report.compressed_bytes
        return original, compressed

    def weight_compression_ratio(self) -> float:
        """CR over the FC weights alone."""
        original, compressed = self._storage(self.fc_names)
        return original / compressed if compressed else float("inf")

    def embedding_compression_ratio(self) -> float:
        """CR over the quantized embedding tables alone (Table VII)."""
        original, compressed = self._storage(self.embedding_names)
        return original / compressed if compressed else float("inf")

    def model_compression_ratio(self) -> float:
        """CR over everything GOBO touches (the Table III column).

        Parameters left FP32 contribute equally to both sides and are
        excluded, matching the paper's weights+embeddings accounting.
        """
        names = self.fc_names + self.embedding_names
        original, compressed = self._storage(names)
        return original / compressed if compressed else float("inf")

    def outlier_fraction(self) -> float:
        """Overall fraction of quantized weights stored as outliers."""
        total = sum(t.total_count for t in self.quantized.values())
        outliers = sum(t.outlier_count for t in self.quantized.values())
        return outliers / total if total else 0.0

    def compressed_bytes(self) -> int:
        """Total compressed footprint of the quantized tensors."""
        return sum(t.storage().compressed_bytes for t in self.quantized.values())

    def original_bytes(self) -> int:
        """FP32 footprint of the quantized tensors."""
        return sum(t.total_count * BYTES_PER_FP32 for t in self.quantized.values())


def quantize_state_dict(
    state: dict[str, np.ndarray],
    fc_names: tuple[str, ...],
    embedding_names: tuple[str, ...] = (),
    weight_bits: int | LayerPolicy = 3,
    embedding_bits: int | None = 4,
    method: str = "gobo",
    log_prob_threshold: float = DEFAULT_LOG_PROB_THRESHOLD,
    workers: int | None = 1,
    on_error: str | None = "fail",
    validation: str = "strict",
    fault_injector: FaultInjector | None = None,
    layer_timeout: float | None = None,
    transient_retries: int | None = None,
    cancel=None,
    job: DurableJob | None = None,
    embedding_method: str | None = None,
    aux: dict[str, np.ndarray] | None = None,
) -> QuantizedModel:
    """Quantize selected tensors of a state dict; pass the rest through.

    ``weight_bits`` may be an int (uniform) or a :class:`LayerPolicy` (e.g.
    the RoBERTa mixed 3b/4b recipe).  ``embedding_bits=None`` leaves the
    embedding tables FP32 (the Figure 4 "FP32 model" scenario is the reverse:
    quantize only embeddings by passing an empty ``fc_names``).

    ``workers`` fans the per-layer jobs out over the engine in
    :mod:`repro.core.parallel` (1 = serial, 0 = one per usable CPU, None = the
    ``REPRO_WORKERS`` environment default).  The output is bit-for-bit
    identical for every worker count; the engine's per-layer timings are
    attached as ``QuantizedModel.report``.

    ``layer_timeout``/``transient_retries``/``cancel`` configure the
    engine's per-layer watchdog, transient-retry budget, and cooperative
    cancellation (None defers to ``REPRO_LAYER_TIMEOUT`` /
    ``REPRO_TRANSIENT_RETRIES``).  ``job`` (a
    :class:`repro.jobs.runner.DurableJob`) journals every finished layer to
    its job directory and, on resume, quantizes only the layers it has not
    journaled — so a crash of the process costs only its in-flight layers.

    ``on_error``/``validation``/``fault_injector`` are forwarded to the
    engine (see :mod:`repro.core.parallel`).  A layer resolved by
    ``fp32-fallback`` (or by the ``skip`` validation policy) stays in the
    FP32 pass-through dict, so the model remains loadable; a layer dropped
    by ``on_error="skip"`` is removed from the output entirely — the
    caller opted into an incomplete model and ``report.failures`` says so.

    ``embedding_method`` optionally quantizes embedding tables with a
    different tensor method than the FC layers (Q-BERT's recipe: group-wise
    FC codes, symmetric 8-bit embeddings); ``None`` uses ``method`` for
    both.  ``aux`` maps layer names to per-layer side data forwarded to the
    tensor method (see :class:`repro.core.quantizer.TensorMethodContext`).
    """
    policy = weight_bits if isinstance(weight_bits, LayerPolicy) else LayerPolicy.uniform(weight_bits)
    missing = [n for n in (*fc_names, *embedding_names) if n not in state]
    if missing:
        raise QuantizationError(f"state dict is missing tensors: {missing}")

    jobs = [LayerJob(name=name, bits=policy.bits_for(name)) for name in fc_names]
    if embedding_bits is not None:
        jobs.extend(
            LayerJob(name=name, bits=embedding_bits, method=embedding_method)
            for name in embedding_names
        )
    quantized, iterations, report = quantize_layers(
        state,
        jobs,
        log_prob_threshold=log_prob_threshold,
        method=method,
        workers=workers,
        on_error=on_error,
        validation=validation,
        fault_injector=fault_injector,
        layer_timeout=layer_timeout,
        transient_retries=transient_retries,
        cancel=cancel,
        aux=aux,
        job=job,
    )

    dropped = {failure.name for failure in report.failures if failure.dropped}
    fp32 = {
        name: value
        for name, value in state.items()
        if name not in quantized and name not in dropped
    }
    model = QuantizedModel(
        quantized=quantized,
        fp32=fp32,
        fc_names=tuple(fc_names),
        embedding_names=tuple(embedding_names),
        iterations=iterations,
        report=report,
    )
    # Non-finite ratios (nothing quantized) are dropped by the gauge helper.
    obs.gauge("model.compression_ratio", model.model_compression_ratio())
    obs.gauge("model.weight_compression_ratio", model.weight_compression_ratio())
    obs.gauge("model.embedding_compression_ratio", model.embedding_compression_ratio())
    obs.gauge("model.outlier_fraction", model.outlier_fraction())
    obs.gauge("model.compressed_bytes", model.compressed_bytes())
    return model


def quantize_model(
    model: Module,
    weight_bits: int | LayerPolicy = 3,
    embedding_bits: int | None = 4,
    method: str = "gobo",
    log_prob_threshold: float = DEFAULT_LOG_PROB_THRESHOLD,
    quantize_weights: bool = True,
    workers: int | None = 1,
    on_error: str | None = "fail",
    validation: str = "strict",
    fault_injector: FaultInjector | None = None,
    layer_timeout: float | None = None,
    transient_retries: int | None = None,
    cancel=None,
    backend: str | None = None,
    job: DurableJob | None = None,
) -> QuantizedModel:
    """Quantize a live model's BERT FC layers and embedding tables.

    Set ``quantize_weights=False`` for the Figure 4 embedding-only scenario.
    ``workers``, ``on_error``, ``validation``, ``fault_injector`` and ``job``
    are forwarded to the layer-parallel engine (see :func:`quantize_state_dict`).
    ``backend`` accepts only None or ``"thread"``, the one backend.
    """
    # The keyword outlives the process backend only because the benchmark's
    # workloads (bench/workloads.py) pass backend="thread"; the next change
    # to the benchmark drops that argument, and this keyword with it.
    if backend not in (None, "thread"):
        raise QuantizationError(
            f"unknown backend {backend!r}; layers run on threads only"
        )
    selection = select_parameters(model)
    return quantize_state_dict(
        model.state_dict(),
        fc_names=selection.fc_names if quantize_weights else (),
        embedding_names=selection.embedding_names,
        weight_bits=weight_bits,
        embedding_bits=embedding_bits,
        method=method,
        log_prob_threshold=log_prob_threshold,
        workers=workers,
        on_error=on_error,
        validation=validation,
        fault_injector=fault_injector,
        layer_timeout=layer_timeout,
        transient_retries=transient_retries,
        cancel=cancel,
        job=job,
    )
