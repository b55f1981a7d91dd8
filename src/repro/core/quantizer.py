"""Tensor-level GOBO quantization (Section IV).

:func:`quantize_tensor` performs the full per-layer pipeline — outlier split,
equal-population init, L1 centroid iteration — and returns a
:class:`GoboQuantizedTensor` holding exactly what the paper says is stored per
layer:

1. the outliers in their original FP32 representation (plus their positions),
2. a ``bits``-wide bin index for each G-group weight (densely bit-packed),
3. the reconstruction table of ``2^bits`` FP32 centroids.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.binning import assign_to_centroids, linear_centroids
from repro.core.clustering import (
    ClusteringResult,
    ConvergenceTrace,
    gobo_cluster,
    kmeans_cluster,
)
from repro.core.formats import StorageReport, storage_report
from repro.core.outliers import DEFAULT_LOG_PROB_THRESHOLD, OutlierDetector
from repro.core.validate import validate_tensor
from repro.errors import ConfigError, LayerSkipped, QuantizationError
from repro.obs import recorder as obs
from repro.utils.bitpack import pack_bits, unpack_bits


@dataclass(frozen=True)
class GoboQuantizedTensor:
    """A weight tensor compressed with GOBO.

    Attributes
    ----------
    shape:
        Original tensor shape.
    bits:
        Index width for G-group weights.
    centroids:
        ``2^bits`` representative FP32 values (the reconstruction table).
    packed_codes:
        Dense bitstream of ``bits``-wide centroid indexes for the G group, in
        flat tensor order with outlier positions skipped.
    outlier_positions:
        Flat indices of the outliers in the original tensor.
    outlier_values:
        The outlier weights, kept in their original representation.
    """

    shape: tuple[int, ...]
    bits: int
    centroids: np.ndarray
    packed_codes: bytes
    outlier_positions: np.ndarray
    outlier_values: np.ndarray

    # ------------------------------------------------------------------ sizes
    @property
    def total_count(self) -> int:
        return int(np.prod(self.shape))

    @property
    def gaussian_count(self) -> int:
        return self.total_count - self.outlier_count

    @property
    def outlier_count(self) -> int:
        return int(self.outlier_positions.size)

    @property
    def outlier_fraction(self) -> float:
        if self.total_count == 0:
            return 0.0
        return self.outlier_count / self.total_count

    def storage(self) -> StorageReport:
        """Byte-accurate storage accounting for this tensor."""
        return storage_report(
            total_weights=self.total_count,
            outliers=self.outlier_count,
            bits=self.bits,
        )

    def compression_ratio(self) -> float:
        """FP32 size divided by GOBO-compressed size."""
        return self.storage().compression_ratio

    # ------------------------------------------------------------ reconstruction
    def codes(self) -> np.ndarray:
        """Unpacked G-group centroid indexes (flat, outliers skipped).

        Narrow and unsigned, as :func:`~repro.utils.bitpack.unpack_bits`
        returns them (``uint8`` up to 8 bits, ``uint16`` above): fine as
        indexes, but widen them before doing arithmetic on them.
        """
        return unpack_bits(self.packed_codes, self.bits, self.gaussian_count)

    def dequantize(self, dtype: np.dtype | type = np.float32) -> np.ndarray:
        """Reconstruct the tensor in ``dtype`` (same shape — GOBO is plug-in
        compatible with any FP32 execution engine).

        Defaults to float32, the paper's decode target.  Reconstruction is
        performed in float64 and cast once at the end, so values are
        identical across worker counts; pass ``np.float64`` to keep the
        stored outliers and centroids bit-exact.

        Every call is counted on the ``quantizer.dequantize_calls`` obs
        counter: a serving path that claims to compute on the compressed
        representation (:mod:`repro.kernels`) can assert the counter stays
        at zero across a forward pass.
        """
        obs.counter("quantizer.dequantize_calls")
        obs.counter("quantizer.dequantize_bytes", self.total_count * np.dtype(dtype).itemsize)
        flat = np.empty(self.total_count, dtype=np.float64)
        mask = np.zeros(self.total_count, dtype=bool)
        mask[self.outlier_positions] = True
        flat[mask] = self.outlier_values
        flat[~mask] = self.centroids[self.codes()]
        return flat.reshape(self.shape).astype(dtype, copy=False)


# --------------------------------------------------------------------------
# Tensor-method plug-in point
#
# A tensor method is the per-layer strategy that decides which weights are
# outliers (kept FP32) and how the inlier group maps onto a centroid table.
# Methods are plain callables ``fn(weights, ctx) -> TensorMethodResult``
# registered by name; the engine, jobs and serialization stack above this
# point never change when a method is added.


@dataclass(frozen=True, eq=False)
class TensorMethodContext:
    """Inputs a tensor method receives beyond the weights themselves.

    ``aux`` carries optional per-layer side data computed outside the engine
    (e.g. GWQ's gradient-saliency outlier mask); methods that need it must
    raise :class:`~repro.errors.QuantizationError` when it is missing.
    """

    bits: int
    log_prob_threshold: float
    max_iterations: int
    validation: str
    aux: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class TensorMethodResult:
    """What a tensor method decided for one layer.

    ``outlier_mask`` is a flat boolean mask over the tensor; ``clustering``
    covers exactly the non-outlier entries in flat order.  ``stored_bits``
    overrides the code width used for bit-packing and the centroid table —
    methods whose code space exceeds ``2^bits`` (e.g. group-wise tables
    concatenated into one global table) set it; ``None`` means the requested
    ``bits``.
    """

    outlier_mask: np.ndarray
    clustering: ClusteringResult
    stored_bits: int | None = None


TensorMethod = Callable[[np.ndarray, TensorMethodContext], TensorMethodResult]

#: Methods that live in optional plug-in modules, imported on first use so
#: that ``repro.core`` never depends on ``repro.quant`` at import time.
_PLUGIN_MODULES: dict[str, str] = {
    "zeroshot": "repro.quant.zeroshot",
    "gwq": "repro.quant.gwq",
    "q8bert-grid": "repro.quant.q8bert",
    "qbert-group": "repro.quant.qbert",
}

_TENSOR_METHODS: dict[str, TensorMethod] = {}


def register_tensor_method(name: str, fn: TensorMethod) -> None:
    """Register a per-layer tensor method under ``name``.

    Raises :class:`~repro.errors.ConfigError` on duplicates — methods are
    part of the archive/fingerprint contract and must never be silently
    redefined.
    """
    if not name:
        raise ConfigError("tensor method name must be non-empty")
    if name in _TENSOR_METHODS:
        raise ConfigError(f"tensor method {name!r} is already registered")
    _TENSOR_METHODS[name] = fn


def unregister_tensor_method(name: str) -> None:
    """Remove a registered method (test cleanup helper)."""
    _TENSOR_METHODS.pop(name, None)


def resolve_tensor_method(name: str) -> TensorMethod:
    """Look up a tensor method by name, importing its plug-in module lazily."""
    fn = _TENSOR_METHODS.get(name)
    if fn is None and name in _PLUGIN_MODULES:
        importlib.import_module(_PLUGIN_MODULES[name])
        fn = _TENSOR_METHODS.get(name)
    if fn is None:
        known = ", ".join(tensor_method_names())
        raise QuantizationError(f"unknown method {name!r}; known methods: {known}")
    return fn


def tensor_method_names() -> tuple[str, ...]:
    """All resolvable method names (registered + lazy plug-ins), sorted."""
    return tuple(sorted(set(_TENSOR_METHODS) | set(_PLUGIN_MODULES)))


def single_pass_result(
    values: np.ndarray, centroids: np.ndarray, assignment: np.ndarray
) -> ClusteringResult:
    """Wrap a non-iterative centroid fit in a one-record ClusteringResult."""
    trace = ConvergenceTrace()
    trace.record(values, centroids, assignment)
    return ClusteringResult(
        centroids=centroids,
        assignment=assignment,
        trace=trace,
        converged=True,
        final_l1=trace.l1_norms[0],
        final_l2=trace.l2_norms[0],
    )


def _linear_cluster(values: np.ndarray, ctx: TensorMethodContext) -> ClusteringResult:
    centroids = linear_centroids(values, 1 << ctx.bits)
    assignment = assign_to_centroids(values, centroids)
    return single_pass_result(values, centroids, assignment)


def _gaussian_family(
    cluster: Callable[[np.ndarray, TensorMethodContext], ClusteringResult],
) -> TensorMethod:
    """Build a method with the paper's Gaussian outlier split around ``cluster``.

    gobo/kmeans/linear share this wrapper, matching the paper's controlled
    comparison: identical outlier handling, different centroid selection.
    """

    def method_fn(weights: np.ndarray, ctx: TensorMethodContext) -> TensorMethodResult:
        detector = OutlierDetector(ctx.log_prob_threshold)
        split = detector.split(weights)
        flat = np.asarray(weights, dtype=np.float64).ravel()
        outlier_mask = split.outlier_mask.ravel()
        gaussian_values = flat[~outlier_mask]
        if gaussian_values.size == 0:
            if ctx.validation == "repair":
                # Degenerate split: every weight scored below the threshold.
                # Repair by treating the whole tensor as the G group with a
                # distribution-free uniform partition.
                outlier_mask = np.zeros_like(outlier_mask)
                result = _linear_cluster(flat, ctx)
            else:
                raise QuantizationError(
                    "all weights were classified as outliers; raise the threshold"
                )
        else:
            result = cluster(gaussian_values, ctx)
        return TensorMethodResult(outlier_mask=outlier_mask, clustering=result)

    return method_fn


register_tensor_method(
    "gobo",
    _gaussian_family(
        lambda values, ctx: gobo_cluster(values, ctx.bits, max_iterations=ctx.max_iterations)
    ),
)
register_tensor_method(
    "kmeans",
    _gaussian_family(
        lambda values, ctx: kmeans_cluster(
            values, ctx.bits, max_iterations=max(ctx.max_iterations, 300)
        )
    ),
)
register_tensor_method("linear", _gaussian_family(_linear_cluster))


def quantize_tensor(
    weights: np.ndarray,
    bits: int = 3,
    log_prob_threshold: float = DEFAULT_LOG_PROB_THRESHOLD,
    method: str = "gobo",
    max_iterations: int = 50,
    validation: str = "strict",
    aux: np.ndarray | None = None,
) -> tuple[GoboQuantizedTensor, ClusteringResult]:
    """Quantize one weight tensor with GOBO (or a baseline centroid method).

    Parameters
    ----------
    weights:
        The FP32 weight tensor (any shape).
    bits:
        Index width for the G group; ``2^bits`` centroids.
    log_prob_threshold:
        Outlier threshold on the Gaussian log-probability (paper: -4).
    method:
        Any registered tensor method (see :func:`tensor_method_names`).
        Built-ins: ``"gobo"`` (L1-monitored iteration), ``"kmeans"``
        (assignment-fixpoint L2 iteration) and ``"linear"`` (uniform
        partition, no iteration) — all three share the same outlier
        handling, matching the paper's controlled comparison.  Plug-in
        methods (``"zeroshot"``, ``"gwq"``, ``"q8bert-grid"``,
        ``"qbert-group"``) are imported from :mod:`repro.quant` on first
        use.
    aux:
        Optional per-layer side data forwarded to the tensor method (e.g.
        a precomputed saliency outlier mask for ``"gwq"``).
    validation:
        Input-validation policy (see :mod:`repro.core.validate`):
        ``"strict"`` raises typed errors on NaN/Inf, zero-variance and
        empty tensors; ``"repair"`` sanitizes non-finite entries and falls
        back to linear binning when the Gaussian fit degenerates;
        ``"skip"`` raises :class:`~repro.errors.LayerSkipped` so engine
        callers can ship the layer unquantized.
    """
    with obs.span("quantize.tensor", bits=bits) as tensor_span:
        tensor, result = _quantize_tensor(
            weights,
            bits=bits,
            log_prob_threshold=log_prob_threshold,
            method=method,
            max_iterations=max_iterations,
            validation=validation,
            aux=aux,
        )
        tensor_span.set(
            method=method,
            iterations=result.iterations,
            converged=result.converged,
            outlier_fraction=tensor.outlier_fraction,
        )
    obs.histogram("quantize.outlier_fraction", tensor.outlier_fraction)
    obs.histogram("quantize.iterations", result.iterations)
    return tensor, result


def _quantize_tensor(
    weights: np.ndarray,
    bits: int,
    log_prob_threshold: float,
    method: str,
    max_iterations: int,
    validation: str,
    aux: np.ndarray | None = None,
) -> tuple[GoboQuantizedTensor, ClusteringResult]:
    outcome = validate_tensor(weights, policy=validation)
    if outcome.skipped:
        raise LayerSkipped(
            f"validation policy 'skip' rejected tensor: {outcome.diagnosis.describe()}"
        )
    weights = outcome.weights
    if outcome.degenerate:
        # A zero-variance tensor defeats any distribution- or saliency-based
        # split; a uniform partition reconstructs it exactly.
        method = "linear"
    method_fn = resolve_tensor_method(method)
    ctx = TensorMethodContext(
        bits=bits,
        log_prob_threshold=log_prob_threshold,
        max_iterations=max_iterations,
        validation=validation,
        aux=aux,
    )
    method_result = method_fn(weights, ctx)
    result = method_result.clustering
    flat = np.asarray(weights, dtype=np.float64).ravel()
    outlier_mask = method_result.outlier_mask
    stored_bits = method_result.stored_bits if method_result.stored_bits is not None else bits

    tensor = GoboQuantizedTensor(
        shape=tuple(weights.shape),
        bits=stored_bits,
        centroids=result.centroids.astype(np.float64),
        packed_codes=pack_bits(result.assignment, stored_bits),
        outlier_positions=np.flatnonzero(outlier_mask).astype(np.int64),
        outlier_values=flat[outlier_mask].copy(),
    )
    return tensor, result
