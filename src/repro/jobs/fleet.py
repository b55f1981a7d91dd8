"""Supervised worker fleet: crash-isolated multi-process quantization.

The thread backend (:func:`repro.core.parallel.quantize_layers`) shares one
address space, so a SIGKILL, an OOM kill or a native-code crash takes down
the *whole run* — the durable journal limits the damage to "resume later",
but the process is still gone.  :func:`run_fleet_layers` is the
``backend="process"`` engine: a supervisor in the calling process leases
layers to N worker processes, and a worker dying (or wedging) mid-layer
costs only that layer's in-flight attempt, never the run.

Architecture (DESIGN.md §5g):

* **One duplex pipe per worker, no shared queue.**  A SIGKILLed process can
  leave a shared ``multiprocessing.Queue`` with a held lock or a torn item;
  a per-worker :func:`multiprocessing.Pipe` confines the damage to that
  worker's channel, which simply reads EOF.  The supervisor multiplexes
  with :func:`multiprocessing.connection.wait` over every pipe plus every
  process sentinel.
* **Leases through the journal.**  When a ``job_dir`` journal is attached
  (the durable runner does), every assignment appends a ``lease`` record
  (layer, worker id, pid, attempt, heartbeat deadline) and every death a
  ``lease-broken`` record.  Both are informational — resume derives state
  from ``layer-done``/``layer-failed`` alone — but ``repro jobs status``
  renders them as the fleet view.
* **Heartbeats.**  Each worker runs a daemon thread sending ``beat``
  messages every ``heartbeat_interval`` seconds; every message re-arms the
  worker's key in a :class:`~repro.jobs.watchdog.DeadlineLedger` for
  ``heartbeat_timeout`` seconds.  A worker whose key expires is presumed
  wedged, SIGKILLed, and treated as dead.  Because the sender is a thread,
  a worker stuck in GIL-holding native code goes silent *by construction*
  — exactly the hang class the cooperative per-layer deadline cannot
  catch.  The sender also watches ``getppid()``: a worker orphaned by
  supervisor death exits immediately rather than leaking.
* **Reassignment before degradation.**  A dead worker's leased layer is
  retried on a surviving worker — with the same deterministic backoff
  jitter as in-place transient retries — up to ``max_reassignments`` times
  before the ``on_error`` policy fires (process death says nothing about
  the tensor).  If every worker dies, :class:`~repro.errors.WorkerCrashError`
  is raised.
* **Determinism.**  Workers execute the exact
  :class:`~repro.core.parallel.JobRunner` code the thread backend runs, and
  the supervisor assembles outcomes in job order, so archives are
  byte-identical across backend, worker count, and any kill-and-resume or
  mid-run worker-death schedule.
* **Observability.**  Workers record to worker-local JSONL traces
  (``worker-<id>.jsonl``; their sinks cannot span processes); the
  supervisor merges them back with
  :func:`~repro.obs.events.read_trace_lenient` — tolerant of the torn final
  line a SIGKILL legitimately leaves — and
  :func:`~repro.obs.recorder.replay`, so one trace and one metrics snapshot
  cover the whole run.

Faults (:mod:`repro.testing.faults`) hold locks and cannot cross process
boundaries, so the fleet takes the ``REPRO_FAULTS`` text spec, checks it
before any worker spawns, and each worker builds its own faults from it;
a fault therefore counts its worker's calls, not the run's.  A fault with
a ``worker`` (``kill-worker``, ``mute-worker``, ``hang-worker``) reads
:func:`current_worker_id` to act inside that worker only, and
``mute-worker`` silences it through :func:`mute_heartbeat`.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.core.outliers import DEFAULT_LOG_PROB_THRESHOLD
from repro.core.parallel import (
    JobRunner,
    LayerFailure,
    LayerJob,
    LayerOutcome,
    QuantizationReport,
    assemble_outcomes,
    resolve,
)
from repro.errors import QuantizationError, WorkerCrashError
from repro.jobs.journal import JobJournal
from repro.jobs.retry import DEFAULT_BACKOFF_BASE, backoff_delay
from repro.jobs.watchdog import DeadlineLedger
from repro.obs import recorder as obs
from repro.obs.events import read_trace_lenient
from repro.obs.sinks import JsonlSink


def _mp_context():
    """Fork when the platform offers it (cheap, inherits state); else spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover — non-POSIX platforms
        return multiprocessing.get_context("spawn")


def _portable_error(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round-trip, else a summary that does.

    Worker exceptions travel over a pipe; an exception holding an open file
    or a lock would kill the *supervisor* with a pickling error — the one
    process that must not die.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 — any pickling failure means "summarize"
        return QuantizationError(f"{type(exc).__name__}: {exc}")


# ------------------------------------------------------------------ worker side

@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs besides the weights (picklable for spawn)."""

    log_prob_threshold: float
    method: str
    max_iterations: int
    on_error: str
    validation: str
    layer_timeout: float | None
    transient_retries: int
    transient_backoff: float
    fault_spec: str
    heartbeat_interval: float
    obs_dir: str


class _HeartbeatSender:
    """Worker-side daemon thread: beats, orphan watch, mute hook."""

    def __init__(self, send: Callable[[tuple], None], worker_id: int, interval: float):
        self.worker_id = worker_id
        self.interval = interval
        self._send = send
        self._stop = threading.Event()
        self._muted = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name=f"repro-fleet-beat-{self.worker_id}", daemon=True
        )
        self._thread.start()

    def mute(self) -> None:
        """Stop beating without stopping the worker (heartbeat-silence fault)."""
        self._muted.set()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=1.0)
            self._thread = None

    def _run(self) -> None:
        parent = os.getppid()
        while not self._stop.wait(self.interval):
            if os.getppid() != parent:
                # Orphaned: the supervisor died. Exit rather than leak.
                os._exit(1)
            if self._muted.is_set():
                continue
            try:
                self._send(("beat", self.worker_id))
            except (OSError, ValueError):
                os._exit(1)  # pipe gone: nobody is listening anymore


@dataclass
class WorkerRuntime:
    """Per-process identity of a fleet worker (set by :func:`_worker_main`)."""

    worker_id: int
    heartbeat: _HeartbeatSender


_runtime: WorkerRuntime | None = None


def current_worker_id() -> int | None:
    """This process's fleet worker id, or None outside a fleet worker."""
    return None if _runtime is None else _runtime.worker_id


def mute_heartbeat() -> bool:
    """Silence this worker's heartbeats; True if a fleet worker, else False.

    The hook behind the ``mute-worker`` fault: the worker keeps running but
    looks dead to the supervisor, which must SIGKILL it and reassign.
    """
    if _runtime is None:
        return False
    _runtime.heartbeat.mute()
    return True


def _worker_main(
    worker_id: int,
    config: WorkerConfig,
    state: Mapping[str, np.ndarray],
    conn,
    aux: Mapping[str, np.ndarray] | None = None,
) -> None:
    """Worker process entry point: recv tasks, run them, send outcomes.

    Group-delivered SIGINT/SIGTERM are ignored — drain decisions belong to
    the supervisor, which tells workers to stop (or dies, which the
    heartbeat thread's ``getppid`` watch converts into a prompt exit).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    # A forked worker inherits the supervisor's sinks, scopes and span
    # stack; shed them before installing the worker-local sink.
    obs.reset()

    send_lock = threading.Lock()

    def send(message: tuple) -> None:
        with send_lock:
            conn.send(message)

    heartbeat = _HeartbeatSender(send, worker_id, config.heartbeat_interval)
    global _runtime
    _runtime = WorkerRuntime(worker_id=worker_id, heartbeat=heartbeat)

    sink = obs.install(JsonlSink(Path(config.obs_dir) / f"worker-{worker_id}.jsonl"))
    # Faults are rebuilt from the text spec in each worker: they hold locks
    # and cannot cross the process boundary.
    from repro.testing.faults import injector_from_spec

    injector = injector_from_spec(config.fault_spec)
    runner = JobRunner(
        state=state,
        log_prob_threshold=config.log_prob_threshold,
        method=config.method,
        max_iterations=config.max_iterations,
        on_error=config.on_error,
        validation=config.validation,
        fault_injector=injector,
        layer_timeout=config.layer_timeout,
        transient_retries=config.transient_retries,
        transient_backoff=config.transient_backoff,
        aux=aux,
    )
    heartbeat.start()
    try:
        send(("ready", worker_id, os.getpid()))
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            _, index, job = message
            try:
                with obs.span("fleet.task", worker=worker_id, layer=job.name):
                    outcome = runner.run(index, job)
            except BaseException as exc:  # noqa: BLE001 — ships to supervisor
                send(("error", worker_id, index, _portable_error(exc)))
                continue
            send(("done", worker_id, index, outcome))
    except (EOFError, OSError):
        pass  # supervisor went away mid-recv/send: exit quietly
    finally:
        heartbeat.stop()
        obs.uninstall(sink)
        sink.close()


# -------------------------------------------------------------- supervisor side

@dataclass
class _WorkerHandle:
    worker_id: int
    process: multiprocessing.process.BaseProcess
    conn: connection.Connection
    pid: int | None = None
    ready: bool = False
    task: "_PendingTask | None" = None
    alive: bool = True


@dataclass
class _PendingTask:
    index: int
    job: LayerJob
    attempt: int = 0
    not_before: float = 0.0


def run_fleet_layers(
    state: Mapping[str, np.ndarray],
    jobs: Iterable[LayerJob],
    log_prob_threshold: float = DEFAULT_LOG_PROB_THRESHOLD,
    method: str = "gobo",
    max_iterations: int = 50,
    workers: int | None = 1,
    on_error: str | None = "fail",
    validation: str = "strict",
    fault_injector=None,
    layer_timeout: float | None = None,
    transient_retries: int | None = None,
    transient_backoff: float = DEFAULT_BACKOFF_BASE,
    cancel: "threading.Event | None" = None,
    on_layer_complete: "Callable[[LayerOutcome], None] | None" = None,
    aux: Mapping[str, np.ndarray] | None = None,
    *,
    journal: JobJournal | None = None,
    fault_spec: str | None = None,
    heartbeat_interval: float | None = None,
    heartbeat_timeout: float | None = None,
    max_reassignments: int | None = None,
    obs_dir: str | Path | None = None,
) -> tuple[dict, dict[str, int], QuantizationReport]:
    """Engine-compatible supervised process-pool run (see module docstring).

    Drop-in for :func:`~repro.core.parallel.quantize_layers` (which
    delegates here for ``backend="process"``); the keyword-only parameters
    configure supervision.  ``fault_spec`` defaults to the ``REPRO_FAULTS``
    environment variable; ``obs_dir`` is where worker-local traces land
    (a temporary directory, merged and discarded, when not given).
    Raises :class:`~repro.errors.WorkerCrashError` when every worker dies,
    or when one dies past its layer's reassignment budget under
    ``on_error="fail"``.
    """
    jobs = list(jobs)
    missing = [job.name for job in jobs if job.name not in state]
    if missing:
        raise QuantizationError(f"state dict is missing tensors: {missing}")
    if fault_injector is not None:
        raise QuantizationError(
            "fault_injector objects cannot cross process boundaries; "
            "export a REPRO_FAULTS spec instead (see repro.testing.faults)"
        )
    workers = resolve("workers", workers)
    on_error = resolve("on_error", on_error)
    layer_timeout = resolve("layer_timeout", layer_timeout)
    transient_retries = resolve("transient_retries", transient_retries)
    heartbeat_interval = resolve("heartbeat_interval", heartbeat_interval)
    heartbeat_timeout = resolve("heartbeat_timeout", heartbeat_timeout)
    max_reassignments = resolve("max_reassignments", max_reassignments)
    if not heartbeat_timeout > heartbeat_interval:
        raise QuantizationError(
            f"heartbeat timeout ({heartbeat_timeout!r}s) must exceed the "
            f"heartbeat interval ({heartbeat_interval!r}s)"
        )
    if fault_spec is None:
        fault_spec = os.environ.get("REPRO_FAULTS", "")
    if fault_spec.strip():
        # Validate supervisor-side so a typo fails the run loudly instead of
        # crashing (or silently disarming) every worker.
        from repro.testing.faults import injector_from_spec

        try:
            injector_from_spec(fault_spec)
        except ValueError as exc:
            raise QuantizationError(f"bad fault spec for fleet workers: {exc}") from exc

    if not jobs:
        with obs.scope() as scoped:
            report = QuantizationReport(
                workers=workers,
                on_error=on_error,
                layer_timeout=layer_timeout,
                backend="process",
            )
            quantized, iterations = assemble_outcomes([], report)
        report.metrics = scoped.snapshot()
        return quantized, iterations, report

    obs_cleanup = None
    if obs_dir is None:
        obs_cleanup = tempfile.TemporaryDirectory(prefix="repro-fleet-obs-")
        obs_dir = Path(obs_cleanup.name)
    else:
        obs_dir = Path(obs_dir)
        obs_dir.mkdir(parents=True, exist_ok=True)

    n = min(workers, len(jobs))
    ctx = _mp_context()
    # Worker id -> when its silence means death; every message re-arms it.
    ledger = DeadlineLedger()
    config = WorkerConfig(
        log_prob_threshold=log_prob_threshold,
        method=method,
        max_iterations=max_iterations,
        on_error=on_error,
        validation=validation,
        layer_timeout=layer_timeout,
        transient_retries=transient_retries,
        transient_backoff=transient_backoff,
        fault_spec=fault_spec,
        heartbeat_interval=heartbeat_interval,
        obs_dir=str(obs_dir),
    )
    # Workers only need the tensors they might quantize (and any per-layer
    # method side data for those same layers).
    needed = {job.name: state[job.name] for job in jobs}
    needed_aux = (
        None
        if aux is None
        else {job.name: aux[job.name] for job in jobs if job.name in aux}
    )

    pending: deque[_PendingTask] = deque(
        _PendingTask(index, job) for index, job in enumerate(jobs)
    )
    outcomes: dict[int, LayerOutcome] = {}
    handles: list[_WorkerHandle] = []
    worker_deaths = 0
    reassignments = 0
    error: BaseException | None = None
    tick = min(heartbeat_interval / 2.0, 0.05)

    def finish(index: int, outcome: LayerOutcome) -> None:
        nonlocal error
        outcomes[index] = outcome
        if on_layer_complete is not None:
            try:
                on_layer_complete(outcome)
            except BaseException as exc:  # noqa: BLE001 — durable storage failed
                error = exc  # aborts the run, matching the thread backend

    def next_runnable(now: float) -> _PendingTask | None:
        for position, task in enumerate(pending):
            if task.not_before <= now:
                del pending[position]
                return task
        return None

    def mark_dead(handle: _WorkerHandle, reason: str) -> None:
        nonlocal error, worker_deaths, reassignments
        if not handle.alive:
            return
        handle.alive = False
        worker_deaths += 1
        ledger.disarm(handle.worker_id)
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover — already closed
            pass
        if handle.process.is_alive():
            handle.process.kill()
            handle.process.join(timeout=5.0)
        obs.counter("fleet.worker_deaths", worker=handle.worker_id, reason=reason)
        task = handle.task
        handle.task = None
        if task is None:
            return
        job = task.job
        crash = WorkerCrashError(
            f"fleet worker {handle.worker_id} (pid {handle.pid}) died "
            f"mid-layer {job.name!r}: {reason}"
        )
        survivors = any(h.alive for h in handles)
        drained = cancel is not None and cancel.is_set()
        reassign = (
            survivors and not drained and task.attempt < max_reassignments
        )
        if journal is not None:
            journal.append(
                {
                    "type": "lease-broken",
                    "name": job.name,
                    "worker": handle.worker_id,
                    "pid": handle.pid,
                    "reason": reason,
                    "reassigned": reassign,
                }
            )
        if drained:
            finish(task.index, LayerOutcome(job=job, cancelled=True))
            return
        if not survivors:
            error = WorkerCrashError(
                f"every fleet worker died; last was worker {handle.worker_id} "
                f"({reason}) while quantizing {job.name!r} — "
                f"resume the job to continue from the journal"
            )
            return
        if reassign:
            # Same deterministic jitter as in-place transient retries: the
            # crash is transient from the layer's point of view.
            obs.counter(
                "engine.retry",
                layer=job.name,
                bits=job.bits,
                attempt=task.attempt + 1,
                error="WorkerCrashError",
            )
            obs.counter("fleet.reassignments", layer=job.name)
            reassignments += 1
            pending.append(
                _PendingTask(
                    index=task.index,
                    job=job,
                    attempt=task.attempt + 1,
                    not_before=time.monotonic()
                    + backoff_delay(task.attempt, base=transient_backoff, key=job.name),
                )
            )
            return
        # Reassignment budget exhausted: the on_error policy decides.
        if on_error == "fail":
            error = crash
            return
        finish(
            task.index,
            LayerOutcome(
                job=job,
                failure=LayerFailure(
                    name=job.name,
                    bits=job.bits,
                    action="skip" if on_error == "skip" else "fp32-fallback",
                    error_type=type(crash).__name__,
                    message=str(crash),
                    attempts=(job.bits,),
                    transient_retries=task.attempt,
                ),
            ),
        )

    def handle_message(handle: _WorkerHandle, message: tuple) -> None:
        nonlocal error
        kind = message[0]
        if kind == "beat":
            ledger.arm(handle.worker_id, heartbeat_timeout)
        elif kind == "ready":
            handle.ready = True
            handle.pid = message[2]
            ledger.arm(handle.worker_id, heartbeat_timeout)
        elif kind == "done":
            _, _, index, outcome = message
            handle.task = None
            ledger.arm(handle.worker_id, heartbeat_timeout)
            finish(index, outcome)
        elif kind == "error":
            _, _, index, exc = message
            handle.task = None
            error = exc

    try:
        with obs.scope() as scoped:
            obs.gauge("engine.workers", n)
            obs.gauge("engine.queue.jobs", len(jobs))
            with obs.span("engine.run", backend="process") as engine_span:
                for worker_id in range(n):
                    parent_conn, child_conn = ctx.Pipe(duplex=True)
                    process = ctx.Process(
                        target=_worker_main,
                        args=(worker_id, config, needed, child_conn, needed_aux),
                        name=f"repro-fleet-{worker_id}",
                        daemon=True,
                    )
                    process.start()
                    child_conn.close()
                    handles.append(
                        _WorkerHandle(
                            worker_id=worker_id, process=process, conn=parent_conn
                        )
                    )
                    # Spawn counts as the first beat.
                    ledger.arm(worker_id, heartbeat_timeout)
                try:
                    while len(outcomes) < len(jobs) and error is None:
                        now = time.monotonic()
                        if cancel is not None and cancel.is_set():
                            # Drain: unstarted layers are cancelled; leased
                            # layers finish and are journaled normally.
                            while pending:
                                task = pending.popleft()
                                finish(
                                    task.index,
                                    LayerOutcome(job=task.job, cancelled=True),
                                )
                            if len(outcomes) >= len(jobs) or error is not None:
                                break
                        for handle in handles:
                            if not (
                                handle.alive and handle.ready and handle.task is None
                            ):
                                continue
                            task = next_runnable(now)
                            if task is None:
                                break
                            handle.task = task
                            try:
                                handle.conn.send(("task", task.index, task.job))
                            except (OSError, ValueError):
                                mark_dead(handle, "pipe broke on task send")
                                continue
                            obs.counter(
                                "fleet.leases",
                                layer=task.job.name,
                                worker=handle.worker_id,
                                attempt=task.attempt,
                            )
                            if journal is not None:
                                journal.append(
                                    {
                                        "type": "lease",
                                        "name": task.job.name,
                                        "bits": task.job.bits,
                                        "worker": handle.worker_id,
                                        "pid": handle.pid,
                                        "attempt": task.attempt,
                                        "deadline": time.time() + heartbeat_timeout,
                                    }
                                )
                        if len(outcomes) >= len(jobs) or error is not None:
                            break
                        alive = [h for h in handles if h.alive]
                        if not alive:
                            if error is None:
                                error = WorkerCrashError(
                                    "every fleet worker died before the run finished"
                                )
                            break
                        wait_for = tick
                        if pending and not any(
                            t.not_before <= now for t in pending
                        ):
                            soonest = min(t.not_before for t in pending)
                            wait_for = min(tick, max(0.001, soonest - now))
                        by_conn = {h.conn: h for h in alive}
                        by_sentinel = {h.process.sentinel: h for h in alive}
                        ready_objects = connection.wait(
                            list(by_conn) + list(by_sentinel), timeout=wait_for
                        )
                        for obj in ready_objects:
                            handle = by_conn.get(obj)
                            if handle is None:
                                continue
                            while handle.alive:
                                try:
                                    if not handle.conn.poll():
                                        break
                                    message = handle.conn.recv()
                                except (EOFError, OSError):
                                    mark_dead(handle, "pipe closed (worker died)")
                                    break
                                handle_message(handle, message)
                        for obj in ready_objects:
                            handle = by_sentinel.get(obj)
                            if handle is not None and handle.alive:
                                # Drain any final messages racing the exit.
                                while True:
                                    try:
                                        if not handle.conn.poll():
                                            break
                                        handle_message(handle, handle.conn.recv())
                                    except (EOFError, OSError):
                                        break
                                mark_dead(handle, "process exited unexpectedly")
                        for worker_id in ledger.expire():
                            handle = handles[worker_id]
                            if handle.alive:
                                mark_dead(
                                    handle,
                                    f"no heartbeat for {heartbeat_timeout:g}s",
                                )
                finally:
                    for handle in handles:
                        if handle.alive:
                            try:
                                handle.conn.send(("stop",))
                            except (OSError, ValueError):
                                pass
                    for handle in handles:
                        handle.process.join(timeout=5.0)
                        if handle.process.is_alive():
                            handle.process.kill()
                            handle.process.join(timeout=5.0)
                        try:
                            handle.conn.close()
                        except OSError:
                            pass
            # Merge worker-local traces so one trace + one snapshot cover
            # the run; lenient because SIGKILLed workers leave torn tails.
            merged = torn = 0
            for worker_id in range(n):
                trace_path = Path(obs_dir) / f"worker-{worker_id}.jsonl"
                if not trace_path.exists():
                    continue
                try:
                    events, skipped = read_trace_lenient(trace_path)
                except OSError:  # pragma: no cover — unreadable trace
                    continue
                merged += obs.replay(events)
                torn += skipped
            if merged:
                obs.counter("fleet.worker_events_merged", merged)
            if torn:
                obs.counter("fleet.worker_events_torn", torn)
            if error is not None:
                raise error
            report = QuantizationReport(
                workers=workers,
                wall_seconds=engine_span.duration,
                on_error=on_error,
                layer_timeout=layer_timeout,
                backend="process",
                worker_deaths=worker_deaths,
                reassignments=reassignments,
            )
            quantized, iterations = assemble_outcomes(
                [outcomes[index] for index in range(len(jobs))], report
            )
        report.metrics = scoped.snapshot()
        return quantized, iterations, report
    finally:
        if obs_cleanup is not None:
            obs_cleanup.cleanup()
