"""Admission control: bound the pending queue, deadline every request.

A micro-batching server has exactly two overload failure modes and this
module maps each to an HTTP-shaped outcome *before* any compute is spent:

* **Queue full** — more requests are pending than :attr:`max_pending`.
  Admission raises :class:`~repro.errors.QueueFullError` carrying a
  ``retry_after`` estimate (queue depth / drain rate), which the HTTP layer
  turns into ``429`` + ``Retry-After``.  Rejecting at the door keeps queue
  wait bounded instead of letting latency grow without limit.
* **Deadline expired** — a request waited longer than
  :attr:`request_timeout`.  The waiting handler gets
  :class:`~repro.errors.RequestTimeoutError` (→ ``504``), and the batcher
  skips expired requests at dequeue so a stale backlog never occupies a
  batch slot.

The controller is a counting gate, not a queue: the batcher owns the queue,
admission owns the bound.  ``slots`` are acquired at submit and released
when the request leaves the system (completed, rejected, or expired), so
``depth`` is the live number of requests anywhere between admission and
response.
"""

from __future__ import annotations

import math
import threading

from repro.errors import QueueFullError, ServeError
from repro.obs import recorder as obs


class AdmissionController:
    """Counting gate in front of the batch queue.

    Parameters
    ----------
    max_pending:
        Bound on concurrently admitted requests (queued + in-batch).
    request_timeout:
        Per-request deadline in seconds, measured from admission.
    drain_rate:
        Estimated requests/second the batcher retires; only used to shape
        the ``Retry-After`` hint on rejection.
    """

    def __init__(self, max_pending: int, request_timeout: float,
                 drain_rate: float = 64.0):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if request_timeout <= 0:
            raise ValueError(f"request_timeout must be > 0, got {request_timeout}")
        self.max_pending = max_pending
        self.request_timeout = request_timeout
        self.drain_rate = drain_rate
        self._lock = threading.Lock()
        self._depth = 0

    @property
    def depth(self) -> int:
        with self._lock:
            return self._depth

    def retry_after(self, depth: int) -> float:
        """Whole seconds until a full queue plausibly has room again."""
        return float(max(1, math.ceil(depth / max(self.drain_rate, 1e-9))))

    def admit(self) -> None:
        """Take one slot or raise :class:`QueueFullError` (→ 429)."""
        with self._lock:
            if self._depth >= self.max_pending:
                depth = self._depth
                obs.counter("serve.rejected", reason="queue_full")
                raise QueueFullError(
                    f"queue full: {depth} request(s) pending "
                    f"(bound {self.max_pending})",
                    retry_after=self.retry_after(depth),
                )
            self._depth += 1
            depth = self._depth
        obs.gauge("serve.queue_depth", depth)

    def release(self) -> None:
        """Return a slot (request completed, expired, or failed).  Raises
        :class:`ServeError`, leaving the depth at 0, when no slot is held:
        a slot released twice would over-grant the next admission."""
        with self._lock:
            if self._depth == 0:
                raise ServeError("admission slot released with none held "
                                 "(a request released its slot twice)")
            self._depth -= 1
            depth = self._depth
        obs.gauge("serve.queue_depth", depth)
