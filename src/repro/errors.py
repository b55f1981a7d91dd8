"""Library-wide exception types."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """A model or quantizer configuration is invalid."""


class FaultSpecError(ConfigError, ValueError):
    """A ``REPRO_FAULTS`` fault-injection spec is malformed: an unknown
    kind, a wrong argument count, or a value the fault could never act on
    (negative or non-finite seconds, a call count below 1, a negative
    layer index, an unknown poison mode).

    Raised when the spec is parsed, not when the fault fires.  Subclasses
    :class:`ValueError` as well, so callers that catch the generic
    ``ValueError`` the parsers raised before keep working.
    """


class TraceFormatError(ReproError, ValueError):
    """A trace file or event violates the documented JSONL schema
    (:mod:`repro.obs.events`).  Subclasses :class:`ValueError` as well, so
    callers that catch the generic ``ValueError`` keep working."""


class ShapeError(ReproError):
    """A tensor has an unexpected shape."""


class QuantizationError(ReproError):
    """Quantization could not be performed on the given tensor."""


class DegenerateTensorError(QuantizationError):
    """A tensor cannot support a Gaussian fit: empty or zero-variance.

    Raised by input validation (``repro.core.validate``) under the
    ``strict`` policy; the ``repair`` policy falls back to linear binning
    instead, and ``skip`` converts it into :class:`LayerSkipped`.
    """


class NonFiniteWeightError(QuantizationError, ValueError):
    """A tensor contains NaN or infinite entries.

    Subclasses :class:`ValueError` as well, so callers that historically
    caught the generic ``ValueError`` from :meth:`GaussianFit.fit` keep
    working.
    """


class LayerSkipped(QuantizationError):
    """Control-flow signal: validation policy ``skip`` rejected this tensor.

    The layer-parallel engine catches this and ships the layer unquantized
    (FP32 pass-through), recording the skip in the run's
    :class:`~repro.core.parallel.QuantizationReport`.
    """


class LayerTimeoutError(QuantizationError):
    """A layer blew its per-layer deadline (``layer_timeout``).

    Raised cooperatively by :func:`repro.jobs.watchdog.checkpoint` inside
    the clustering iteration loop once the layer's
    :class:`~repro.jobs.watchdog.Deadline` expires.  The layer-parallel
    engine converts it into a :class:`~repro.core.parallel.LayerFailure`
    with ``action="timeout"`` under every non-``fail`` ``on_error`` policy.
    """


class JobStateError(ReproError):
    """A durable job directory is unusable for the requested run.

    Raised when a journal exists but ``resume`` was not requested, when the
    journaled job fingerprint does not match the requested parameters, or
    when the journal is too corrupt to recover.
    """


class SerializationError(ReproError):
    """A stored model archive is malformed."""


class TruncatedArchiveError(SerializationError):
    """An archive exists but is not a readable npz container (truncated
    write, or garbage bytes where the zip structure should be)."""


class ChecksumMismatchError(SerializationError):
    """An archive's recorded checksum does not match its contents (bit rot,
    partial overwrite, or tampering)."""


class FormatVersionError(SerializationError):
    """An archive declares a format ``version`` this reader does not support."""

    def __init__(self, message: str, version: int | None = None):
        super().__init__(message)
        self.version = version


class ServeError(ReproError):
    """Base class for errors raised by the serving layer."""


class ModelNotFoundError(ServeError):
    """The registry has no model under the requested name."""


class QueueFullError(ServeError):
    """Admission control rejected a request: the pending queue is at its
    bound.  Carries ``retry_after`` (seconds) for the 429 response header."""

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class RequestTimeoutError(ServeError):
    """A request's deadline expired before its batch completed (504)."""


class ModelQuarantinedError(ServeError):
    """The model's health state machine has it quarantined: admission
    answers 503 + ``Retry-After`` instead of letting the request reach a
    kernel that will fail it.  Carries ``retry_after`` (seconds) and the
    current health ``state`` for the response body."""

    def __init__(self, message: str, retry_after: float = 1.0,
                 state: str = "quarantined"):
        super().__init__(message)
        self.retry_after = retry_after
        self.state = state


class BatchWorkerError(ServeError):
    """The batch worker thread died (or was replaced) while this request's
    batch was in flight.  Transient: the request itself says nothing about
    the model, so the health breaker counts it but admission keeps the
    model serving.  Mapped to 503 + ``Retry-After: 1``."""


class ForwardTimeoutError(BatchWorkerError):
    """A model forward exceeded the per-forward deadline: the batch-worker
    watchdog failed the in-flight batch and replaced the wedged worker.
    Transient, like :class:`BatchWorkerError`."""
