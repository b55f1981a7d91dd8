"""Input validation and repair for per-layer quantization.

GOBO is post-training and strictly per-layer, so one pathological tensor —
all-constant weights with zero std, NaN/Inf entries left behind by a diverged
fine-tune, an empty embedding row — must never take down a whole-model
compression run.  :func:`validate_tensor` runs *before* the Gaussian fit and
classifies each tensor, with a three-way policy knob:

``strict`` (default)
    Raise a typed error: :class:`~repro.errors.NonFiniteWeightError` for
    NaN/Inf entries, :class:`~repro.errors.DegenerateTensorError` for empty
    or zero-variance tensors.  This is the historical fail-fast behaviour
    with precise types.
``repair``
    Sanitize non-finite entries (replace them with the mean of the finite
    values, or 0.0 if none are finite) and flag zero-variance tensors as
    *degenerate* so the caller falls back to linear binning — a constant
    tensor has no Gaussian to fit, but a uniform partition of its (single)
    value is exact.  Empty tensors cannot be repaired and still raise.
``skip``
    Mark the tensor as skipped; :func:`repro.core.quantizer.quantize_tensor`
    converts this into :class:`~repro.errors.LayerSkipped`, which the
    layer-parallel engine catches to ship the layer unquantized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DegenerateTensorError, NonFiniteWeightError, QuantizationError

VALIDATION_POLICIES = ("strict", "repair", "skip")


@dataclass(frozen=True)
class TensorDiagnosis:
    """What is wrong (if anything) with one weight tensor."""

    total: int
    non_finite: int
    zero_variance: bool

    @property
    def empty(self) -> bool:
        return self.total == 0

    @property
    def ok(self) -> bool:
        return not (self.empty or self.non_finite or self.zero_variance)

    def describe(self) -> str:
        """Human-readable summary of every detected defect."""
        if self.ok:
            return "ok"
        problems = []
        if self.empty:
            problems.append("empty tensor")
        if self.non_finite:
            problems.append(f"{self.non_finite}/{self.total} non-finite entries")
        if self.zero_variance:
            problems.append("zero variance")
        return ", ".join(problems)


@dataclass(frozen=True)
class ValidationOutcome:
    """The result of validating (and possibly repairing) one tensor.

    Attributes
    ----------
    weights:
        The tensor to quantize — the original under ``strict``/``skip``,
        a sanitized copy under ``repair``.
    diagnosis:
        The pre-repair classification.
    repairs:
        Human-readable notes of every repair applied (empty if none).
    degenerate:
        True when the (possibly repaired) tensor has no usable Gaussian —
        the caller should fall back to linear binning.
    skipped:
        True when policy ``skip`` rejected the tensor.
    """

    weights: np.ndarray
    diagnosis: TensorDiagnosis
    repairs: tuple[str, ...] = ()
    degenerate: bool = False
    skipped: bool = False


def diagnose_tensor(weights: np.ndarray) -> TensorDiagnosis:
    """Classify ``weights`` without modifying or rejecting it."""
    flat = np.asarray(weights, dtype=np.float64).ravel()
    if flat.size == 0:
        return TensorDiagnosis(total=0, non_finite=0, zero_variance=False)
    finite = np.isfinite(flat)
    non_finite = int(flat.size - np.count_nonzero(finite))
    finite_values = flat[finite] if non_finite else flat
    # A tensor whose finite values are all identical (including the
    # single-element case) has std == 0: the Gaussian fit is degenerate.
    zero_variance = (
        finite_values.size == 0
        or bool(np.all(finite_values == finite_values[0]))
    )
    return TensorDiagnosis(
        total=int(flat.size), non_finite=non_finite, zero_variance=zero_variance
    )


def validate_tensor(
    weights: np.ndarray, policy: str = "strict"
) -> ValidationOutcome:
    """Validate ``weights`` under ``policy`` (see module docstring).

    Raises the typed errors under ``strict`` (and for unrepairable empty
    tensors under ``repair``); never raises under ``skip``.
    """
    if policy not in VALIDATION_POLICIES:
        raise QuantizationError(
            f"unknown validation policy {policy!r}; use one of {VALIDATION_POLICIES}"
        )
    weights = np.asarray(weights)
    diagnosis = diagnose_tensor(weights)
    if diagnosis.ok:
        return ValidationOutcome(weights=weights, diagnosis=diagnosis)

    if policy == "skip":
        return ValidationOutcome(weights=weights, diagnosis=diagnosis, skipped=True)

    if diagnosis.empty:
        # No policy can conjure weights out of nothing.
        raise DegenerateTensorError("cannot quantize an empty tensor")

    if policy == "strict":
        if diagnosis.non_finite:
            raise NonFiniteWeightError(
                f"tensor contains {diagnosis.non_finite} NaN/Inf entries "
                f"(of {diagnosis.total}); use validation='repair' to sanitize"
            )
        raise DegenerateTensorError(
            "tensor has zero variance (all values identical); "
            "use validation='repair' to fall back to linear binning"
        )

    # policy == "repair"
    repairs: list[str] = []
    repaired = np.asarray(weights, dtype=np.float64).copy()
    if diagnosis.non_finite:
        finite = np.isfinite(repaired)
        fill = float(repaired[finite].mean()) if finite.any() else 0.0
        repaired[~finite] = fill
        repairs.append(
            f"replaced {diagnosis.non_finite} non-finite entries with {fill:.6g}"
        )
    degenerate = diagnose_tensor(repaired).zero_variance
    if degenerate:
        repairs.append("degenerate Gaussian fit: falling back to linear binning")
    return ValidationOutcome(
        weights=repaired,
        diagnosis=diagnosis,
        repairs=tuple(repairs),
        degenerate=degenerate,
    )
