"""Transient-error classification and backoff for in-place layer retries.

Not every layer failure means the layer cannot quantize: an ``OSError``
reading a weight shard, a filesystem hiccup in a fault-injection test, a
momentary resource squeeze — these are *transient* and the right response
is to retry the same attempt, not to degrade the layer.  The engine
consults :func:`is_transient` before any ``on_error`` policy fires and
sleeps :func:`backoff_delay` between attempts (exponential with
deterministic jitter, so tests never flake on randomized sleeps).

This is deliberately distinct from the ``retry-higher-bits`` policy, which
is an *accuracy* fallback for layers that genuinely fail at the requested
width; transient retries re-run the identical attempt and therefore cannot
change the output bytes.
"""

from __future__ import annotations

import hashlib

from repro.errors import LayerTimeoutError

#: Default backoff parameters (seconds).
DEFAULT_BACKOFF_BASE = 0.05
DEFAULT_BACKOFF_CAP = 2.0


def is_transient(exc: BaseException) -> bool:
    """True when ``exc`` should be retried in place: an ``OSError``, which
    covers I/O errors (including the injected ``InjectedIOError``;
    ``ConnectionError``/``InterruptedError`` are OSError subclasses).

    A :class:`~repro.errors.LayerTimeoutError` is never transient — the
    layer already consumed its whole deadline, so retrying it in place
    would just stall the run again.  Nor is a crash of the whole process:
    the durable journal and ``--resume`` recover from it
    (:mod:`repro.jobs.runner`).
    """
    if isinstance(exc, LayerTimeoutError):
        return False
    return isinstance(exc, OSError)


def backoff_delay(
    attempt: int,
    base: float = DEFAULT_BACKOFF_BASE,
    cap: float = DEFAULT_BACKOFF_CAP,
    key: str = "",
) -> float:
    """Exponential backoff with deterministic jitter for retry ``attempt``.

    ``attempt`` is 0-based (the delay before the first retry).  The jitter
    is a ±25% perturbation derived from ``key`` (typically the layer name)
    and the attempt number, so two layers retrying concurrently do not
    thunder in lockstep yet every run sleeps identically — important for
    tests that bound wall-clock.
    """
    if attempt < 0:
        raise ValueError(f"attempt must be >= 0, got {attempt}")
    delay = min(float(base) * (2.0 ** attempt), float(cap))
    digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
    fraction = digest[0] / 255.0  # deterministic in [0, 1]
    return delay * (0.75 + 0.5 * fraction)
