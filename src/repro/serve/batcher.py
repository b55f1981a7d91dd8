"""Micro-batching queue: amortize lookup-kernel forwards across requests.

Decoding a band of weights costs the same for 1 row as for 16, so requests
that queue up behind a forward share the next one, padded into one
``(batch, seq)`` tensor with an attention mask: one forward per model.
That forward computes only the pooled output it returns
(``pooled_only=True``): the padding is never computed, and the last layer
runs on the [CLS] rows alone.

The policy is :class:`BatchCore`, with no threads and no clock: each method
takes ``now`` and returns an action (forward this :class:`Batch`,
:class:`Wait` until a time, or :class:`Fail` these requests).  A request
that reaches an idle worker alone is dispatched at once; when others are
already queued the worker takes them, up to ``max_batch``, and waits out
``batch_window`` for more.  The core also keeps each in-flight forward's
deadline, so completing a batch and reaping it are one claim.

:class:`MicroBatcher` is the threaded shell; one lock guards the core:

* HTTP handler threads call :meth:`submit` (admission-gated, non-blocking)
  then :meth:`wait` (blocks until the batch completes or the request's
  deadline expires → :class:`~repro.errors.RequestTimeoutError`).
* One worker thread runs the forwards, one at a time, so per-request
  latency stays predictable.
* A **watchdog thread** (DESIGN.md §5i) fails a forward past
  ``forward_timeout``, or a dead worker's batch, as *transient*
  (:class:`~repro.errors.ForwardTimeoutError` /
  :class:`~repro.errors.BatchWorkerError`), reports it to the health
  monitor, and starts a new worker generation.  A superseded worker that
  un-wedges finds its batch claimed, discards its late results and exits.
  Once :meth:`~MicroBatcher.close` has stopped the watchdog, it fails a
  dead worker's batch itself.
* Spans: :meth:`wait` nests ``serve.queue_wait`` (admission → batch start)
  in the handler's ``serve.request`` span; ``serve.batch`` runs under the
  context of the batch's first request, and is recorded before the batch's
  handlers wake.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import NamedTuple

import numpy as np

from repro.errors import (BatchWorkerError, ForwardTimeoutError, ReproError,
                          RequestTimeoutError, ServeError)
from repro.obs import recorder as obs
from repro.serve.admission import AdmissionController
from repro.serve.registry import ModelRegistry

#: How often the watchdog sweeps for a wedged forward or a dead worker.
WATCHDOG_POLL_INTERVAL = 0.05

#: A request's states; DONE and ABANDONED are final.
QUEUED, RUNNING, DONE, ABANDONED = "queued", "running", "done", "abandoned"


class PendingRequest:
    """One admitted request traveling from handler thread to worker and back."""

    __slots__ = ("model", "input_ids", "token_type_ids", "context", "admitted_at",
                 "deadline", "state", "started", "done", "result", "error")

    def __init__(self, model: str, input_ids: np.ndarray,
                 token_type_ids: np.ndarray | None, deadline: float):
        self.model, self.input_ids, self.token_type_ids = model, input_ids, token_type_ids
        self.context = obs.capture_context()
        self.admitted_at, self.deadline = time.perf_counter(), deadline
        self.state = QUEUED
        self.started, self.done = threading.Event(), threading.Event()
        self.result: dict | None = None
        self.error: Exception | None = None


def _check_ids(field: str, ids: np.ndarray, size: int, model: str) -> None:
    """``ValueError`` unless ``ids`` are integers in ``[0, size)``."""
    if not np.issubdtype(ids.dtype, np.integer):
        raise ValueError(f"{field} must be integers, got dtype {ids.dtype}")
    if ids.min() < 0 or ids.max() >= size:
        raise ValueError(f"{field} must be in [0, {size}) for model {model!r}")


class Batch:
    """Forward ``requests`` (all of ``model``) as one batch."""

    __slots__ = ("model", "requests")

    def __init__(self, model: str, requests: list):
        self.model, self.requests = model, requests


class Wait(NamedTuple):
    """Nothing to do before ``until`` (``math.inf``: until woken)."""
    until: float


class Fail(NamedTuple):
    """``requests`` of ``model`` were finished with ``error``."""
    model: str
    requests: list
    error: Exception


class BatchCore:
    """The batcher's decisions: the queue, the window, claim and complete,
    and the in-flight forward deadlines.

    Pure and single-caller.  A method that finishes requests sets their
    ``result``/``error``, marks them DONE and returns them; the caller
    wakes their handlers and releases their admission slots.
    """

    def __init__(self, batch_window: float, max_batch: int,
                 forward_timeout: float | None = None):
        self.batch_window, self.max_batch = batch_window, max_batch
        self.forward_timeout = forward_timeout
        self.queue: deque = deque()
        self.taken: list = []  # the batch being formed, then dispatched by model
        self.window_end = -math.inf
        self.inflight: dict[Batch, float] = {}  # forward -> its deadline
        self.generation, self.stopping = 1, False

    def submit(self, request) -> None:
        if self.stopping:
            raise ServeError("server is shutting down")
        self.queue.append(request)

    def next(self, now: float) -> Batch | Fail | Wait | None:
        """The worker's next move; None means exit (closed and drained)."""
        while True:
            if not self.taken:
                if not self.queue:
                    return None if self.stopping else Wait(math.inf)
                self.taken.append(self.queue.popleft())
                # A lone request goes at once; company opens the window.
                self.window_end = now + self.batch_window if self.queue else now
            while self.queue and len(self.taken) < self.max_batch:
                self.taken.append(self.queue.popleft())
            if (len(self.taken) < self.max_batch and now < self.window_end
                    and not self.stopping):
                return Wait(self.window_end)
            # One forward per model, the oldest request's first.  Abandoned
            # requests drop out here: their handlers freed the slot.
            model = self.taken[0].model
            group = [r for r in self.taken if r.model == model and r.state == QUEUED]
            self.taken = [r for r in self.taken if r.model != model]
            expired = [r for r in group if now >= r.deadline]
            if expired:
                self.taken[:0] = [r for r in group if now < r.deadline]
                error = RequestTimeoutError(
                    "request expired in queue before a batch slot opened")
                return Fail(model, self._finish(expired, error=error), error)
            if group:
                break
        batch = Batch(model, group)
        for request in group:
            request.state = RUNNING
        self.inflight[batch] = now + (self.forward_timeout or math.inf)
        return batch

    def complete(self, batch: Batch, results: list | None,
                 error: Exception | None = None) -> list | None:
        """The forward of ``batch`` returned ``results`` or raised ``error``:
        the requests it finished, or None if a reap or close claimed it first."""
        if self.inflight.pop(batch, None) is None:
            return None
        return self._finish(batch.requests, results, error)

    def reap(self, now: float, worker_alive: bool = True) -> tuple[str | None, list]:
        """The watchdog's sweep: ``(reason, fails)``.  A forward past its
        deadline (``"forward-timeout"``) or a dead worker (``"worker-died"``)
        has its batches claimed and failed, and starts a new generation."""
        if self.stopping:
            return None, []
        due = [batch for batch, deadline in self.inflight.items() if deadline <= now]
        if due:
            reason = "forward-timeout"
        elif not worker_alive:
            due, reason = list(self.inflight), "worker-died"
        else:
            return None, []
        fails = []
        for batch in due:
            del self.inflight[batch]
            if reason == "worker-died":
                error = BatchWorkerError("batch worker died mid-forward; the batch "
                                         "was failed and the worker replaced")
            else:
                error = ForwardTimeoutError(
                    f"forward for model {batch.model!r} exceeded the "
                    f"{self.forward_timeout:g}s forward timeout; the batch worker "
                    f"was replaced")
            fails.append(Fail(batch.model, self._finish(batch.requests, error=error), error))
        self.generation += 1
        return reason, fails

    def abandon(self, request) -> bool:
        """The handler gave up at its deadline: True unless the request is
        already finished (the handler then releases the slot itself)."""
        if request.state == DONE:
            return False
        request.state = ABANDONED
        return True

    def close(self, drain: bool, error: Exception,
              worker_alive: bool = True) -> list:
        """Stop taking requests; returns the requests this finished.  No
        reap runs after this, so the in-flight batches of a worker that is
        dead (or given up on) are claimed and failed here.  ``drain``
        leaves the queue to a live worker; otherwise every request not yet
        forwarded is finished with ``error``."""
        self.stopping = True
        finished = []
        if not worker_alive:
            died = BatchWorkerError("batch worker died or wedged at shutdown; "
                                    "the batch was failed")
            for batch in self.inflight:
                finished += self._finish(batch.requests, error=died)
            self.inflight = {}
        if drain and worker_alive:
            return finished
        waiting, self.taken, self.queue = [*self.taken, *self.queue], [], deque()
        return finished + self._finish(waiting, error=error)

    @staticmethod
    def _finish(requests: list, results: list | None = None,
                error: Exception | None = None) -> list:
        # Callers own ``requests`` (popped from the queue or claimed from
        # ``inflight``); only a handler that gave up can have beaten them.
        finished = []
        for request, result in zip(requests, results or [None] * len(requests)):
            if request.state != ABANDONED:
                request.result, request.error, request.state = result, error, DONE
                finished.append(request)
        return finished


class MicroBatcher:
    """Collect requests into batches; one model forward per batch per model.

    ``forward_timeout`` arms the watchdog's per-forward deadline (None
    disables it; dead-worker detection runs either way).  ``health`` is an
    optional :class:`~repro.serve.health.HealthMonitor`: quarantined models
    are rejected at :meth:`submit` and every batch outcome is reported.
    ``fault`` is an optional fault injector
    (:func:`repro.testing.faults.injector_from_env`) called as
    ``fault("forward", (model,))`` before each forward.
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
        self.registry, self.admission = registry, admission
        self.health, self.fault = health, fault
        self._core = BatchCore(batch_window, max_batch, forward_timeout)
        self._cond = threading.Condition()
        self._watchdog_stop = threading.Event()
        self._worker = self._spawn_worker()
        self._watchdog_poll = WATCHDOG_POLL_INTERVAL if forward_timeout is None else min(
            WATCHDOG_POLL_INTERVAL, max(forward_timeout / 4.0, 0.001))
        self._watchdog = threading.Thread(
            target=self._watch, name="repro-serve-batch-watchdog", daemon=True)
        self._watchdog.start()

    def _spawn_worker(self) -> threading.Thread:
        """Start a worker for the core's generation (hold ``_cond``)."""
        generation = self._core.generation
        worker = threading.Thread(target=self._run, args=(generation,), daemon=True,
                                  name=f"repro-serve-batcher-{generation}")
        worker.start()
        return worker

    def _release(self, finished: list) -> None:
        """Wake the finished requests' handlers and free their slots."""
        for pending in finished:
            pending.started.set()
            pending.done.set()
            self.admission.release()

    # ------------------------------------------------------------ submission
    def submit(self, model: str, input_ids, token_type_ids=None) -> PendingRequest:
        """Validate, admit, and enqueue one request (non-blocking).

        Raises :class:`~repro.errors.ModelNotFoundError` for unknown models,
        :class:`~repro.errors.ModelQuarantinedError` for quarantined ones
        (before any queue slot is burned), ``ValueError`` for malformed
        inputs, :class:`~repro.errors.QueueFullError` at the admission bound,
        and :class:`~repro.errors.ServeError` after shutdown began.
        """
        entry = self.registry.get(model)  # 404 before burning a queue slot
        if self.health is not None:
            self.health.admit(model)  # 503 + Retry-After while quarantined
        ids = np.asarray(input_ids)
        if ids.ndim != 1 or ids.size == 0:
            raise ValueError(f"input_ids must be a non-empty 1-D token sequence, "
                             f"got shape {ids.shape}")
        if ids.size > entry.max_position:
            raise ValueError(f"sequence length {ids.size} exceeds model {model!r} "
                             f"max_position {entry.max_position}")
        _check_ids("input_ids", ids, entry.vocab_size, model)
        types = None if token_type_ids is None else np.asarray(token_type_ids)
        if types is not None:
            if types.shape != ids.shape:
                raise ValueError(f"token_type_ids shape {types.shape} must match "
                                 f"input_ids shape {ids.shape}")
            # An id the embedding table lacks would fail the whole fused
            # forward, and with it every request in the batch.
            _check_ids("token_type_ids", types, entry.type_vocab_size, model)
            types = types.astype(np.int64)
        self.admission.admit()
        pending = PendingRequest(model, ids.astype(np.int64), types, deadline=(
            time.perf_counter() + self.admission.request_timeout))
        with self._cond:
            try:
                self._core.submit(pending)
            except ServeError:
                self.admission.release()
                raise
            self._cond.notify()
        obs.counter("serve.submitted", model=model)
        return pending

    def wait(self, pending: PendingRequest) -> dict:
        """Block until ``pending`` completes; its deadline bounds the wait.
        Call inside the handler's ``serve.request`` span."""
        with obs.span("serve.queue_wait", model=pending.model):
            pending.started.wait(max(0.0, pending.deadline - time.perf_counter()))
        if not pending.done.wait(max(0.0, pending.deadline - time.perf_counter())):
            with self._cond:
                abandoned = self._core.abandon(pending)
            if abandoned:
                # The worker will skip this request; its slot is freed here.
                self.admission.release()
                obs.counter("serve.timeouts", model=pending.model)
                raise RequestTimeoutError(
                    f"request deadline of {self.admission.request_timeout:.3f}s "
                    f"expired before its batch completed")
        if pending.error is not None:
            raise pending.error
        assert pending.result is not None
        return pending.result

    # ---------------------------------------------------------------- worker
    def _run(self, generation: int) -> None:
        while True:
            with self._cond:
                while True:
                    if self._core.generation != generation:
                        return  # superseded by the watchdog; a successor runs
                    action = self._core.next(time.perf_counter())
                    if not isinstance(action, Wait):
                        break
                    self._cond.wait(None if action.until == math.inf
                                    else action.until - time.perf_counter())
            if action is None:
                return
            if isinstance(action, Fail):
                self._release(action.requests)
                for pending in action.requests:
                    obs.counter("serve.expired_in_queue", model=pending.model)
            else:
                self._run_batch(action)

    def _run_batch(self, batch: Batch) -> None:
        model, live = batch.model, batch.requests
        for pending in live:
            pending.started.set()
        finished = None
        # A batch has many parent requests but the schema allows one: the
        # first member's, a deterministic choice that beats no parent.
        try:
            with obs.use_context(live[0].context):
                with obs.span("serve.batch", model=model, batch_size=len(live)):
                    try:
                        result_rows, error = self._forward(model, live), None
                    except ReproError as exc:
                        result_rows, error = None, exc
                    except Exception as exc:  # noqa: BLE001 — fan the error out
                        # Typed, so every handler answers it (500) and keeps
                        # its connection; the cause stays chained.
                        result_rows, error = None, ServeError(
                            f"forward for model {model!r} failed: "
                            f"{type(exc).__name__}: {exc}")
                        error.__cause__ = exc
                    with self._cond:
                        finished = self._core.complete(batch, result_rows, error)
                    if finished is not None and self.health is not None:
                        if error is None:
                            self.health.report_success(model)
                        else:
                            self.health.report_failure(model, error)
        finally:
            # Past the span's exit, so a handler that returns finds its
            # batch's span recorded; in a finally, so a sink that raises
            # there strands no request.
            if finished:
                self._release(finished)
        if finished is None:
            return  # claimed: the watchdog or close() failed this batch
        obs.counter("serve.batches", model=model)
        obs.histogram("serve.batch_size", len(live), model=model)

    def _forward(self, model: str, live: list[PendingRequest]) -> list[dict]:
        if self.fault is not None:
            self.fault("forward", (model,))
        width = max(pending.input_ids.size for pending in live)
        input_ids, attention_mask, token_type_ids = np.zeros(
            (3, len(live), width), dtype=np.int64)
        for row, pending in enumerate(live):
            size = pending.input_ids.size
            input_ids[row, :size] = pending.input_ids
            attention_mask[row, :size] = 1
            if pending.token_type_ids is not None:
                token_type_ids[row, :size] = pending.token_type_ids
        with self.registry.lease(model) as entry:
            _, pooled = entry.model(input_ids, attention_mask, token_type_ids,
                                    pooled_only=True)
            version = entry.version
        pooled_rows = np.asarray(pooled.data, dtype=np.float64)
        now = time.perf_counter()
        return [{"model": model, "version": version,
                 "pooled": pooled_rows[row, :].tolist(), "batch_size": len(live),
                 "latency_ms": round((now - pending.admitted_at) * 1000.0, 3)}
                for row, pending in enumerate(live)]

    # -------------------------------------------------------------- watchdog
    def _watch(self) -> None:
        while not self._watchdog_stop.wait(self._watchdog_poll):
            self.check_worker()

    def check_worker(self, now: float | None = None) -> str | None:
        """One watchdog sweep: replace a wedged or dead worker.  ``now`` is
        in ``time.perf_counter`` terms; returns the reason
        (``"forward-timeout"`` / ``"worker-died"``) or None."""
        now = time.perf_counter() if now is None else now
        with self._cond:
            reason, fails = self._core.reap(now, self._worker.is_alive())
            if reason is None:
                return None
            self._worker = self._spawn_worker()
            self._cond.notify_all()
        for fail in fails:
            if self.health is not None:
                self.health.report_failure(fail.model, fail.error)
            self._release(fail.requests)
        obs.counter("serve.worker_replaced", reason=reason,
                    model=fails[0].model if fails else None)
        return reason

    # -------------------------------------------------------------- shutdown
    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the worker.  ``drain=True`` finishes queued requests first;
        ``drain=False`` fails them with :class:`ServeError`.

        No request is left to its deadline: whatever a dead worker cannot
        drain is failed, and the in-flight batch of a worker that died or
        fails to join within ``timeout`` fails with
        :class:`BatchWorkerError`.  A worker that fails to join raises
        :class:`ServeError` after that (callers still tearing down other
        resources should wrap this call).
        """
        self._watchdog_stop.set()
        with self._cond:
            worker = self._worker
            alive = worker.is_alive()
            dropped = self._core.close(drain, ServeError(
                "server shut down" if alive or not drain
                else "batch worker died before shutdown; request abandoned"), alive)
            self._cond.notify_all()
        self._release(dropped)
        self._watchdog.join(timeout=5.0)
        worker.join(timeout=timeout)
        # The worker exited, died mid-drain, or is wedged with no watchdog
        # left to replace it: nothing it holds or left queued will finish.
        with self._cond:
            stuck = self._core.close(False, ServeError(
                "batch worker failed to drain; request abandoned"), worker_alive=False)
        self._release(stuck)
        if worker.is_alive():
            obs.counter("serve.worker_join_timeouts")
            raise ServeError(
                f"batch worker failed to stop within {timeout:g}s of close(); "
                f"{len(stuck)} request(s) were failed")
