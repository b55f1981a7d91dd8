"""Deadlines: cooperative per-layer cancellation.

Python threads cannot be killed, so a hung layer cannot be interrupted from
the outside; what *can* be done is cooperative cancellation:

* A :class:`Deadline` is armed around each layer attempt.  Hot loops call
  :func:`checkpoint` (the clustering iteration loop does, once per
  iteration) which raises :class:`~repro.errors.LayerTimeoutError` as soon
  as the deadline has passed.  The deadline travels thread-locally via
  :func:`deadline_scope`, so deep callees (and fault injectors) can consult
  :func:`current_deadline` without any parameter threading.  Expiry is read
  off the monotonic clock at each check; no thread watches it.

The guarantee is therefore *bounded grace*, not preemption: a layer that
times out is surfaced within ``layer_timeout`` plus the time to its next
checkpoint.  Code that never reaches a checkpoint (a true C-level hang)
cannot be interrupted: the run stalls until it is killed, and ``--resume``
then redoes only the layers in flight.  See DESIGN.md §5d for the
semantics.  The serving batcher keeps its in-flight forward deadlines in
its own core (:class:`repro.serve.batcher.BatchCore`, DESIGN.md §5i).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

from repro.errors import LayerTimeoutError, QuantizationError

_local = threading.local()


class Deadline:
    """A monotonic-clock deadline.

    ``expired()`` is true once ``seconds`` have elapsed since construction;
    ``check()`` converts expiry into a
    :class:`~repro.errors.LayerTimeoutError`.
    """

    __slots__ = ("seconds", "label", "_expires_at")

    def __init__(self, seconds: float, label: str = ""):
        if not seconds > 0:
            raise QuantizationError(f"deadline seconds must be > 0, got {seconds!r}")
        self.seconds = float(seconds)
        self.label = label
        self._expires_at = time.monotonic() + self.seconds

    def remaining(self) -> float:
        """Seconds until expiry (negative once past it)."""
        return self._expires_at - time.monotonic()

    def expired(self) -> bool:
        return self.remaining() <= 0

    def check(self) -> None:
        """Raise :class:`LayerTimeoutError` if the deadline has passed."""
        if self.expired():
            what = f" for {self.label!r}" if self.label else ""
            raise LayerTimeoutError(
                f"deadline of {self.seconds:g}s{what} exceeded"
            )


def current_deadline() -> Deadline | None:
    """The deadline armed on this thread, or None."""
    return getattr(_local, "deadline", None)


@contextmanager
def deadline_scope(deadline: Deadline | None) -> Iterator[Deadline | None]:
    """Arm ``deadline`` as this thread's ambient deadline for the block.

    ``None`` is accepted (and is a no-op) so callers can scope
    unconditionally.  Scopes nest: the innermost deadline wins, and the
    previous one is restored on exit.
    """
    previous = getattr(_local, "deadline", None)
    _local.deadline = deadline if deadline is not None else previous
    try:
        yield deadline
    finally:
        _local.deadline = previous


def checkpoint() -> None:
    """Cooperative cancellation point: raise if the ambient deadline passed.

    A no-op (one thread-local read) when no deadline is armed, so hot loops
    — the clustering iteration loop calls this once per iteration — pay
    nothing outside supervised runs.
    """
    deadline = getattr(_local, "deadline", None)
    if deadline is not None:
        deadline.check()

