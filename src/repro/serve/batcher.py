"""Micro-batching queue: amortize lookup-kernel forwards across requests.

The lookup kernels are batch-oriented — decoding a band of weights costs
the same for 1 row as for 16, and BLAS then multiplies the decoded tile by
every row at once — so a serving path that forwards each HTTP request
alone leaves most of the kernel's throughput on the floor.
:class:`MicroBatcher` collects concurrent requests for up to
``batch_window`` seconds (or ``max_batch`` items, whichever comes first),
pads them into one ``(batch, seq)`` tensor with an attention mask, runs a
single model forward per model, and fans the pooled outputs back to the
waiting handler threads.

Threading contract:

* HTTP handler threads call :meth:`submit` (admission-gated, non-blocking)
  then :meth:`wait` (blocks until the batch completes or the request's
  deadline expires → :class:`~repro.errors.RequestTimeoutError`).
* One worker thread drains the queue.  A single worker serializes forwards
  deliberately: NumPy kernels are already multi-core via BLAS-free
  vectorized sweeps, and one-at-a-time batches keep per-request latency
  predictable.
* A **watchdog thread** supervises the worker (DESIGN.md §5i).  Every
  forward registers an in-flight record with a deadline
  (``forward_timeout`` seconds); the watchdog failing that deadline — or
  finding the worker thread dead — fails the in-flight batch with a
  *transient* :class:`~repro.errors.ForwardTimeoutError` /
  :class:`~repro.errors.BatchWorkerError`, reports it to the health
  monitor, and starts a replacement worker under a new generation.  A
  superseded worker that eventually un-wedges sees its generation is stale,
  discards its late results, and exits — so one hung mmap read stalls the
  process for at most ``forward_timeout``, not forever.
* Spans: the handler's ``serve.request`` span wraps :meth:`wait`, which
  nests ``serve.queue_wait`` (admission → batch start, measured on the
  handler thread).  The worker emits ``serve.batch`` under the span context
  captured from the batch's first request (see
  :func:`repro.obs.recorder.capture_context`), so batch timings attach to
  the trace tree rather than floating parentless.
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np

from repro.errors import (
    BatchWorkerError,
    ForwardTimeoutError,
    RequestTimeoutError,
    ServeError,
)
from repro.obs import recorder as obs
from repro.serve.admission import AdmissionController
from repro.serve.registry import ModelRegistry

#: How often the watchdog sweeps for a wedged forward or a dead worker.
WATCHDOG_POLL_INTERVAL = 0.05


class PendingRequest:
    """One admitted request traveling from handler thread to worker and back."""

    __slots__ = (
        "model", "input_ids", "token_type_ids", "context", "admitted_at",
        "deadline", "started", "done", "lock", "abandoned", "result", "error",
    )

    def __init__(self, model: str, input_ids: np.ndarray,
                 token_type_ids: np.ndarray | None, deadline: float):
        self.model = model
        self.input_ids = input_ids
        self.token_type_ids = token_type_ids
        self.context = obs.capture_context()
        self.admitted_at = time.perf_counter()
        self.deadline = deadline
        self.started = threading.Event()
        self.done = threading.Event()
        self.lock = threading.Lock()
        self.abandoned = False
        self.result: dict | None = None
        self.error: Exception | None = None


class _InflightBatch:
    """One forward in progress, visible to the watchdog.

    ``aborted`` is the handoff bit: whoever sets it first (the watchdog on
    deadline/death, under ``MicroBatcher._inflight_lock``) owns failing the
    batch's requests; the worker checks it after the forward returns and
    discards late results instead of double-completing.
    """

    __slots__ = ("model", "live", "started_at", "deadline", "aborted")

    def __init__(self, model: str, live: list[PendingRequest],
                 started_at: float, deadline: float | None):
        self.model = model
        self.live = live
        self.started_at = started_at
        self.deadline = deadline
        self.aborted = False


class MicroBatcher:
    """Collect requests into batches; one model forward per batch per model.

    ``forward_timeout`` arms the watchdog's per-forward deadline (None
    disables it; dead-worker detection runs either way).  ``health`` is an
    optional :class:`~repro.serve.health.HealthMonitor`: quarantined models
    are rejected at :meth:`submit` and every batch outcome is reported.
    ``fault`` is an optional serve-path fault injector
    (:func:`repro.testing.faults.serve_injector_from_env`) called as
    ``fault("forward", model)`` before each forward.
    """

    def __init__(self, registry: ModelRegistry, admission: AdmissionController,
                 batch_window: float = 0.005, max_batch: int = 8,
                 forward_timeout: float | None = None, health=None,
                 fault=None):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if batch_window < 0:
            raise ValueError(f"batch_window must be >= 0, got {batch_window}")
        if forward_timeout is not None and forward_timeout <= 0:
            raise ValueError(
                f"forward_timeout must be > 0 or None, got {forward_timeout}")
        self.registry = registry
        self.admission = admission
        self.batch_window = batch_window
        self.max_batch = max_batch
        self.forward_timeout = forward_timeout
        self.health = health
        self.fault = fault
        self._queue: deque[PendingRequest] = deque()
        self._not_empty = threading.Condition()
        self._stop = False
        self._generation = 0
        self._inflight_lock = threading.Lock()
        self._inflight: _InflightBatch | None = None
        self._watchdog_stop = threading.Event()
        self._worker = self._spawn_worker()
        poll = WATCHDOG_POLL_INTERVAL
        if forward_timeout is not None:
            poll = min(poll, max(forward_timeout / 4.0, 0.001))
        self._watchdog_poll = poll
        self._watchdog = threading.Thread(
            target=self._watch, name="repro-serve-batch-watchdog", daemon=True
        )
        self._watchdog.start()

    def _spawn_worker(self) -> threading.Thread:
        """Start a worker thread for the next generation (caller must hold
        ``_not_empty`` or be the constructor)."""
        self._generation += 1
        worker = threading.Thread(
            target=self._run, args=(self._generation,),
            name=f"repro-serve-batcher-{self._generation}", daemon=True,
        )
        worker.start()
        return worker

    # ------------------------------------------------------------ submission
    def submit(self, model: str, input_ids, token_type_ids=None) -> PendingRequest:
        """Validate, admit, and enqueue one request (non-blocking).

        Raises :class:`~repro.errors.ModelNotFoundError` for unknown models,
        :class:`~repro.errors.ModelQuarantinedError` for quarantined ones
        (503 + Retry-After before any queue slot is burned),
        :class:`~repro.errors.ShapeError`-free ``ValueError`` for malformed
        inputs, :class:`~repro.errors.QueueFullError` at the admission bound,
        and :class:`~repro.errors.ServeError` after shutdown began.
        """
        entry = self.registry.get(model)  # 404 before burning a queue slot
        if self.health is not None:
            self.health.admit(model)  # 503 + Retry-After while quarantined
        ids = np.asarray(input_ids)
        if ids.ndim != 1 or ids.size == 0:
            raise ValueError(
                f"input_ids must be a non-empty 1-D token sequence, got shape {ids.shape}"
            )
        if not np.issubdtype(ids.dtype, np.integer):
            raise ValueError(f"input_ids must be integers, got dtype {ids.dtype}")
        if ids.size > entry.max_position:
            raise ValueError(
                f"sequence length {ids.size} exceeds model {model!r} "
                f"max_position {entry.max_position}"
            )
        if ids.min() < 0 or ids.max() >= entry.vocab_size:
            raise ValueError(
                f"token ids must be in [0, {entry.vocab_size}) for model {model!r}"
            )
        types = None
        if token_type_ids is not None:
            types = np.asarray(token_type_ids)
            if types.shape != ids.shape:
                raise ValueError(
                    f"token_type_ids shape {types.shape} must match "
                    f"input_ids shape {ids.shape}"
                )
        self.admission.admit()
        pending = PendingRequest(
            model, ids.astype(np.int64), types,
            deadline=time.perf_counter() + self.admission.request_timeout,
        )
        with self._not_empty:
            if self._stop:
                self.admission.release()
                raise ServeError("server is shutting down")
            self._queue.append(pending)
            self._not_empty.notify()
        obs.counter("serve.submitted", model=model)
        return pending

    def wait(self, pending: PendingRequest) -> dict:
        """Block until ``pending`` completes; its deadline bounds the wait.

        Call inside the handler's ``serve.request`` span: the queue wait is
        emitted here as a nested ``serve.queue_wait`` span.
        """
        with obs.span("serve.queue_wait", model=pending.model):
            pending.started.wait(max(0.0, pending.deadline - time.perf_counter()))
        pending.done.wait(max(0.0, pending.deadline - time.perf_counter()))
        with pending.lock:
            if not pending.done.is_set():
                # Handler gives up; the worker must not touch this request
                # (and must not release its admission slot — we do, here).
                pending.abandoned = True
        if pending.done.is_set():
            if pending.error is not None:
                raise pending.error
            assert pending.result is not None
            return pending.result
        self.admission.release()
        obs.counter("serve.timeouts", model=pending.model)
        raise RequestTimeoutError(
            f"request deadline of {self.admission.request_timeout:.3f}s expired "
            f"before its batch completed"
        )

    # ---------------------------------------------------------------- worker
    def _run(self, generation: int) -> None:
        while True:
            with self._not_empty:
                if self._generation != generation:
                    return  # superseded by the watchdog; a successor drains
                while not self._queue and not self._stop:
                    self._not_empty.wait(timeout=0.05)
                    if self._generation != generation:
                        return
                if not self._queue:
                    if self._stop:
                        return
                    continue
                batch = [self._queue.popleft()]
            window_end = time.perf_counter() + self.batch_window
            while len(batch) < self.max_batch:
                remaining = window_end - time.perf_counter()
                if remaining <= 0:
                    break
                with self._not_empty:
                    if not self._queue:
                        self._not_empty.wait(timeout=remaining)
                    if self._queue:
                        batch.append(self._queue.popleft())
            groups: dict[str, list[PendingRequest]] = {}
            for pending in batch:
                groups.setdefault(pending.model, []).append(pending)
            for model, group in groups.items():
                self._run_group(model, group)

    def _claim(self, pending: PendingRequest) -> bool:
        """True if the request is still live (not abandoned, not expired)."""
        now = time.perf_counter()
        with pending.lock:
            if pending.abandoned:
                return False
            if now >= pending.deadline:
                pending.error = RequestTimeoutError(
                    "request expired in queue before a batch slot opened"
                )
                pending.done.set()
                self.admission.release()
                obs.counter("serve.expired_in_queue", model=pending.model)
                return False
        pending.started.set()
        return True

    def _complete(self, pending: PendingRequest, result: dict | None,
                  error: Exception | None) -> None:
        with pending.lock:
            if pending.abandoned:
                return  # handler timed out mid-batch and released the slot
            if pending.done.is_set():
                return  # the watchdog already failed this request
            pending.result = result
            pending.error = error
            pending.done.set()
        self.admission.release()

    def _run_group(self, model: str, group: list[PendingRequest]) -> None:
        live = [pending for pending in group if self._claim(pending)]
        if not live:
            return
        # Attach the batch span to the first member's request trace; a batch
        # has many parents but the schema has one, and an arbitrary-but-
        # deterministic choice beats a parentless span.
        with obs.use_context(live[0].context):
            with obs.span("serve.batch", model=model, batch_size=len(live)):
                inflight = self._begin_forward(model, live)
                try:
                    result_rows, error = self._forward(model, live), None
                except Exception as exc:  # noqa: BLE001 — fan the error out
                    result_rows, error = None, exc
                if self._end_forward(inflight):
                    return  # aborted: the watchdog failed + reported this batch
                if error is None:
                    for pending, row in zip(live, result_rows):
                        self._complete(pending, row, None)
                    if self.health is not None:
                        self.health.report_success(model)
                else:
                    for pending in live:
                        self._complete(pending, None, error)
                    if self.health is not None:
                        self.health.report_failure(model, error)
        obs.counter("serve.batches", model=model)
        obs.histogram("serve.batch_size", len(live), model=model)

    def _begin_forward(self, model: str,
                       live: list[PendingRequest]) -> _InflightBatch:
        now = time.perf_counter()
        deadline = None if self.forward_timeout is None else now + self.forward_timeout
        inflight = _InflightBatch(model, live, now, deadline)
        with self._inflight_lock:
            self._inflight = inflight
        return inflight

    def _end_forward(self, inflight: _InflightBatch) -> bool:
        """Clear the in-flight record; True if the watchdog aborted it."""
        with self._inflight_lock:
            if self._inflight is inflight:
                self._inflight = None
            return inflight.aborted

    def _forward(self, model: str, live: list[PendingRequest]) -> list[dict]:
        if self.fault is not None:
            self.fault("forward", model)
        lengths = [pending.input_ids.size for pending in live]
        width = max(lengths)
        input_ids = np.zeros((len(live), width), dtype=np.int64)
        attention_mask = np.zeros((len(live), width), dtype=np.int64)
        token_type_ids = np.zeros((len(live), width), dtype=np.int64)
        for row, pending in enumerate(live):
            size = pending.input_ids.size
            input_ids[row, :size] = pending.input_ids
            attention_mask[row, :size] = 1
            if pending.token_type_ids is not None:
                token_type_ids[row, :size] = pending.token_type_ids
        with self.registry.lease(model) as entry:
            _, pooled = entry.model(input_ids, attention_mask, token_type_ids)
            version = entry.version
        pooled_rows = np.asarray(pooled.data, dtype=np.float64)
        now = time.perf_counter()
        return [
            {
                "model": model,
                "version": version,
                "pooled": pooled_rows[row, :].tolist(),
                "batch_size": len(live),
                "latency_ms": round((now - pending.admitted_at) * 1000.0, 3),
            }
            for row, pending in enumerate(live)
        ]

    # -------------------------------------------------------------- watchdog
    def _watch(self) -> None:
        while not self._watchdog_stop.wait(self._watchdog_poll):
            self.check_worker()

    def check_worker(self, now: float | None = None) -> str | None:
        """One watchdog sweep: replace a wedged or dead worker.

        Clock-injectable for tests (``now`` in ``time.perf_counter``
        terms).  Returns the replacement reason (``"forward-timeout"`` /
        ``"worker-died"``) or None when the worker is fine.
        """
        now = time.perf_counter() if now is None else now
        with self._not_empty:
            if self._stop:
                return None
            worker = self._worker
            generation = self._generation
        with self._inflight_lock:
            inflight = self._inflight
            wedged = (
                inflight is not None
                and not inflight.aborted
                and inflight.deadline is not None
                and now >= inflight.deadline
            )
            if wedged:
                inflight.aborted = True  # we own failing this batch now
        if wedged:
            error = ForwardTimeoutError(
                f"forward for model {inflight.model!r} exceeded the "
                f"{self.forward_timeout:g}s forward timeout; the batch "
                f"worker was replaced"
            )
            self._abort_batch(inflight, error, "forward-timeout", generation)
            return "forward-timeout"
        if not worker.is_alive():
            # The worker died outside close() — a BaseException escaped, or
            # the interpreter killed the thread.  Fail whatever it had in
            # flight and hand the queue to a fresh worker.
            with self._inflight_lock:
                inflight = self._inflight
                if inflight is not None and not inflight.aborted:
                    inflight.aborted = True
                else:
                    inflight = None
            error = BatchWorkerError(
                "batch worker died mid-forward; the batch was failed and "
                "the worker replaced"
            )
            self._abort_batch(inflight, error, "worker-died", generation)
            return "worker-died"
        return None

    def _abort_batch(self, inflight: _InflightBatch | None, error: Exception,
                     reason: str, generation: int) -> None:
        """Fail an aborted batch, report health, and respawn the worker."""
        if inflight is not None:
            for pending in inflight.live:
                self._complete(pending, None, error)
            if self.health is not None:
                self.health.report_failure(inflight.model, error)
        with self._not_empty:
            if self._stop or self._generation != generation:
                return  # already replaced (or shutting down)
            self._worker = self._spawn_worker()
            self._not_empty.notify_all()
        obs.counter(
            "serve.worker_replaced", reason=reason,
            model=inflight.model if inflight is not None else None,
        )

    # -------------------------------------------------------------- shutdown
    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the worker.  ``drain=True`` finishes queued requests first;
        ``drain=False`` fails them with :class:`ServeError`.

        A worker that is already dead cannot drain, so its queue is failed
        rather than left waiting out request deadlines; a worker that fails
        to join within ``timeout`` raises :class:`ServeError` after failing
        whatever it left queued (callers still tearing down other resources
        should wrap this call).
        """
        self._watchdog_stop.set()
        with self._not_empty:
            self._stop = True
            worker = self._worker
            if not drain or not worker.is_alive():
                dropped = list(self._queue)
                self._queue.clear()
            else:
                dropped = []
            self._not_empty.notify_all()
        self._watchdog.join(timeout=5.0)
        shutdown_error = ServeError(
            "server shut down" if drain is False or worker.is_alive()
            else "batch worker died before shutdown; request abandoned"
        )
        for pending in dropped:
            if self._claim(pending):
                self._complete(pending, None, shutdown_error)
        worker.join(timeout=timeout)
        if worker.is_alive():
            # Wedged mid-forward with no watchdog left to replace it: the
            # queue will never drain, so fail it loudly instead of letting
            # requests wait out their deadlines in silence.
            with self._not_empty:
                stuck = list(self._queue)
                self._queue.clear()
            for pending in stuck:
                if self._claim(pending):
                    self._complete(pending, None, ServeError(
                        "batch worker failed to stop; request abandoned"
                    ))
            obs.counter("serve.worker_join_timeouts")
            raise ServeError(
                f"batch worker failed to stop within {timeout:g}s of close(); "
                f"{len(stuck)} queued request(s) were failed"
            )
