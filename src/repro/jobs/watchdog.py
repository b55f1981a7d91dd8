"""Deadlines: cooperative per-layer cancellation and one supervisor ledger.

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
semantics.

:class:`DeadlineLedger` is the supervisor's half: keys armed with expiry
times behind one lock.  The serving batcher (:mod:`repro.serve.batcher`,
DESIGN.md §5i) arms its in-flight forward and reaps it on a timeout.
Every removal happens under the lock, so whoever removes an entry owns
what it stands for.
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


class DeadlineLedger:
    """Keys armed with expiry times; removing a key claims it.

    Thread-safe and clock-injectable: ``now`` defaults to
    :func:`time.monotonic`, and a caller that passes its own clock must pass
    it everywhere.  :meth:`disarm` and :meth:`expire` both remove under one
    lock, so when an owner finishing its work races a supervisor reaping it,
    exactly one of them gets the key — the owner sees ``disarm`` return
    False and leaves the outcome to the supervisor.  The ledger passes no
    judgement on *why* a key expired: a dead process and a wedged one look
    identical from the outside.
    """

    def __init__(self) -> None:
        self._expires: dict = {}
        self._lock = threading.Lock()

    def arm(self, key, seconds: float, now: float | None = None) -> None:
        """(Re)arm ``key`` (any hashable) to expire ``seconds`` after ``now``."""
        expires_at = (time.monotonic() if now is None else now) + seconds
        with self._lock:
            self._expires[key] = expires_at

    def disarm(self, key) -> bool:
        """Remove ``key``; True if it was armed, i.e. the caller claimed it."""
        with self._lock:
            return self._expires.pop(key, None) is not None

    def expire(self, now: float | None = None) -> list:
        """Remove and return every key whose expiry is at or before ``now``."""
        now = time.monotonic() if now is None else now
        with self._lock:
            due = [key for key, expires_at in self._expires.items() if expires_at <= now]
            for key in due:
                del self._expires[key]
        return due
