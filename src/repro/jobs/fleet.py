"""Supervised worker fleet: crash-isolated multi-process quantization.

The thread backend of :func:`repro.core.parallel.quantize_layers` shares
one address space, so a SIGKILL, an OOM kill or a native-code crash takes
down the *whole run* — the durable journal limits the damage to "resume
later", but the process is still gone.  For ``backend="process"`` the
engine swaps its thread-pool map for :func:`run_fleet`, the supervisor
loop: it hands the run's :class:`~repro.core.parallel.JobRunner` to N
worker processes and leases them layers, and a worker dying (or wedging)
mid-layer costs only that layer's in-flight attempt, never the run.  The
engine keeps everything else: settings, the report, the obs scope and the
``engine.run`` span.

Architecture (DESIGN.md §5g):

* **One duplex pipe per worker, no shared queue.**  A SIGKILLed process can
  leave a shared ``multiprocessing.Queue`` with a held lock or a torn item;
  a per-worker :func:`multiprocessing.Pipe` confines the damage to that
  worker's channel, which simply reads EOF.  The supervisor multiplexes
  with :func:`multiprocessing.connection.wait` over every pipe plus every
  process sentinel.
* **Leases through the journal.**  When the run has a
  :class:`~repro.jobs.runner.DurableJob`, every assignment appends a
  ``lease`` record (layer, worker id, pid, attempt, heartbeat deadline)
  and every death a ``lease-broken`` record.  Both are informational —
  resume derives state from ``layer-done``/``layer-failed`` alone — but
  ``repro jobs status`` renders them as the fleet view.
* **Heartbeats.**  Each worker runs a daemon thread sending ``beat``
  messages every ``REPRO_HEARTBEAT_INTERVAL`` seconds; every message
  re-arms the worker's key in a :class:`~repro.jobs.watchdog.DeadlineLedger`
  for ``REPRO_HEARTBEAT_TIMEOUT`` seconds.  A worker whose key expires is
  presumed wedged, SIGKILLed, and treated as dead.  Because the sender is a thread,
  a worker stuck in GIL-holding native code goes silent *by construction*
  — exactly the hang class the cooperative per-layer deadline cannot
  catch.  The sender also watches ``getppid()``: a worker orphaned by
  supervisor death exits immediately rather than leaking.
* **Reassignment before degradation.**  A dead worker's leased layer is
  retried on a surviving worker — with the same deterministic backoff
  jitter as in-place transient retries — up to ``REPRO_MAX_REASSIGNMENTS``
  times before the ``on_error`` policy fires (process death says nothing
  about the tensor; :meth:`~repro.core.parallel.JobRunner.failed` resolves
  it).  If every worker dies, :class:`~repro.errors.WorkerCrashError`
  is raised.
* **Determinism.**  Workers execute the exact
  :class:`~repro.core.parallel.JobRunner` the thread backend runs, and
  the supervisor returns outcomes in job order, so archives are
  byte-identical across backend, worker count, and any kill-and-resume or
  mid-run worker-death schedule.
* **Observability.**  Workers record to worker-local JSONL traces
  (``worker-<id>.jsonl`` in a temporary directory, or under the job's
  ``obs/``; their sinks cannot span processes); the supervisor merges them
  back with :func:`~repro.obs.events.read_trace_lenient` — tolerant of the
  torn final line a SIGKILL legitimately leaves — and
  :func:`~repro.obs.recorder.replay`, so one trace and one metrics snapshot
  cover the whole run.

The runner's fault injector (:mod:`repro.testing.faults`) travels with
it, and each worker works on its own copy, counting from zero; a fault
therefore counts its worker's calls, not the run's.  A fault with a
``worker`` (``kill-worker``, ``mute-worker``, ``hang-worker``) reads
:func:`current_worker_id` to act inside that worker only, and
``mute-worker`` silences it through :func:`mute_heartbeat`.
"""

from __future__ import annotations

import copy
import dataclasses
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
from typing import TYPE_CHECKING, Callable

from repro.core.parallel import JobRunner, LayerJob, LayerOutcome, resolve
from repro.errors import QuantizationError, WorkerCrashError
from repro.jobs.retry import backoff_delay
from repro.jobs.watchdog import DeadlineLedger
from repro.obs import recorder as obs
from repro.obs.events import read_trace_lenient
from repro.obs.sinks import JsonlSink

if TYPE_CHECKING:
    from repro.jobs.runner import DurableJob


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
    runner: JobRunner,
    conn,
    heartbeat_interval: float,
    obs_dir: str,
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

    heartbeat = _HeartbeatSender(send, worker_id, heartbeat_interval)
    global _runtime
    _runtime = WorkerRuntime(worker_id=worker_id, heartbeat=heartbeat)

    sink = obs.install(JsonlSink(Path(obs_dir) / f"worker-{worker_id}.jsonl"))
    # A forked worker shares the supervisor's injector state as of the
    # fork; its own copy counts this worker's calls from zero.
    runner = dataclasses.replace(
        runner, fault_injector=copy.deepcopy(runner.fault_injector)
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


def run_fleet(
    runner: JobRunner,
    jobs: list[tuple[int, LayerJob]],
    workers: int,
    cancel: "threading.Event | None" = None,
    job: DurableJob | None = None,
) -> tuple[list[LayerOutcome], int, int]:
    """Run ``(index, job)`` pairs on up to ``workers`` supervised processes.

    The process-backend map of :func:`~repro.core.parallel.quantize_layers`
    (see module docstring), called inside its obs scope and ``engine.run``
    span.  Returns the outcomes in job order, the number of worker deaths
    and the number of reassigned layers.  Each outcome goes to
    ``job.record`` as it arrives, and ``job`` journals the leases.  Raises
    :class:`~repro.errors.WorkerCrashError` when every worker dies, or when
    one dies past its layer's reassignment budget under ``on_error="fail"``.
    """
    heartbeat_interval = resolve("heartbeat_interval")
    heartbeat_timeout = resolve("heartbeat_timeout")
    max_reassignments = resolve("max_reassignments")
    if not heartbeat_timeout > heartbeat_interval:
        raise QuantizationError(
            f"heartbeat timeout ({heartbeat_timeout!r}s) must exceed the "
            f"heartbeat interval ({heartbeat_interval!r}s)"
        )
    journal = None if job is None else job.journal
    obs_cleanup = None
    if job is None:
        obs_cleanup = tempfile.TemporaryDirectory(prefix="repro-fleet-obs-")
        obs_dir = Path(obs_cleanup.name)
    else:
        # Kept inside the job dir, where the traces survive for post-mortem
        # even if the supervisor dies.
        obs_dir = job.job_dir / "obs"
        obs_dir.mkdir(parents=True, exist_ok=True)

    n = min(workers, len(jobs))
    ctx = _mp_context()
    # Worker id -> when its silence means death; every message re-arms it.
    ledger = DeadlineLedger()
    pending: deque[_PendingTask] = deque(_PendingTask(i, layer) for i, layer in jobs)
    outcomes: dict[int, LayerOutcome] = {}
    handles: list[_WorkerHandle] = []
    worker_deaths = 0
    reassignments = 0
    tick = min(heartbeat_interval / 2.0, 0.05)

    def finish(index: int, outcome: LayerOutcome) -> None:
        outcomes[index] = outcome
        if job is not None:
            job.record(outcome)  # raising aborts the run: durable storage failed

    def next_runnable(now: float) -> _PendingTask | None:
        for position, task in enumerate(pending):
            if task.not_before <= now:
                del pending[position]
                return task
        return None

    def mark_dead(handle: _WorkerHandle, reason: str) -> None:
        nonlocal worker_deaths, reassignments
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
        layer = task.job
        survivors = any(h.alive for h in handles)
        drained = cancel is not None and cancel.is_set()
        reassign = survivors and not drained and task.attempt < max_reassignments
        if journal is not None:
            journal.append(
                {
                    "type": "lease-broken",
                    "name": layer.name,
                    "worker": handle.worker_id,
                    "pid": handle.pid,
                    "reason": reason,
                    "reassigned": reassign,
                }
            )
        if drained:
            finish(task.index, LayerOutcome(job=layer, cancelled=True))
            return
        if not survivors:
            raise WorkerCrashError(
                f"every fleet worker died; last was worker {handle.worker_id} "
                f"({reason}) while quantizing {layer.name!r} — "
                f"resume the job to continue from the journal"
            )
        if reassign:
            # Same deterministic jitter as in-place transient retries: the
            # crash is transient from the layer's point of view.
            obs.counter(
                "engine.retry",
                layer=layer.name,
                bits=layer.bits,
                attempt=task.attempt + 1,
                error="WorkerCrashError",
            )
            obs.counter("fleet.reassignments", layer=layer.name)
            reassignments += 1
            pending.append(
                _PendingTask(
                    index=task.index,
                    job=layer,
                    attempt=task.attempt + 1,
                    not_before=time.monotonic()
                    + backoff_delay(
                        task.attempt, base=runner.transient_backoff, key=layer.name
                    ),
                )
            )
            return
        # Reassignment budget exhausted: the on_error policy decides.
        crash = WorkerCrashError(
            f"fleet worker {handle.worker_id} (pid {handle.pid}) died "
            f"mid-layer {layer.name!r}: {reason}"
        )
        finish(task.index, runner.failed(layer, crash, (layer.bits,), task.attempt))

    def handle_message(handle: _WorkerHandle, message: tuple) -> None:
        kind = message[0]
        if kind == "error":
            raise message[3]
        if kind == "ready":
            handle.ready = True
            handle.pid = message[2]
        elif kind == "done":
            _, _, index, outcome = message
            handle.task = None
            finish(index, outcome)
        ledger.arm(handle.worker_id, heartbeat_timeout)

    try:
        for worker_id in range(n):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=_worker_main,
                args=(worker_id, runner, child_conn, heartbeat_interval, str(obs_dir)),
                name=f"repro-fleet-{worker_id}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            handles.append(
                _WorkerHandle(worker_id=worker_id, process=process, conn=parent_conn)
            )
            # Spawn counts as the first beat.
            ledger.arm(worker_id, heartbeat_timeout)
        while len(outcomes) < len(jobs):
            now = time.monotonic()
            if cancel is not None and cancel.is_set():
                # Drain: unstarted layers are cancelled; leased layers
                # finish and are journaled normally.
                while pending:
                    task = pending.popleft()
                    finish(task.index, LayerOutcome(job=task.job, cancelled=True))
                if len(outcomes) >= len(jobs):
                    break
            for handle in handles:
                if not (handle.alive and handle.ready and handle.task is None):
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
            if len(outcomes) >= len(jobs):
                break
            alive = [h for h in handles if h.alive]
            if not alive:
                raise WorkerCrashError(
                    "every fleet worker died before the run finished"
                )
            wait_for = tick
            if pending and not any(t.not_before <= now for t in pending):
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
                    mark_dead(handle, f"no heartbeat for {heartbeat_timeout:g}s")
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
        # Merge worker-local traces so one trace + one snapshot cover the
        # run, failed or not; lenient because SIGKILLed workers leave torn
        # tails.
        merged = torn = 0
        for worker_id in range(n):
            trace_path = obs_dir / f"worker-{worker_id}.jsonl"
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
        if obs_cleanup is not None:
            obs_cleanup.cleanup()
    return [outcomes[index] for index, _ in jobs], worker_deaths, reassignments
