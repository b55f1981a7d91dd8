"""Per-model health: circuit breaker, quarantine, and self-healing reloads.

The serving layer's failure modes split cleanly in two, and conflating them
is how one bad batch turns into an outage:

* **Transient** — a wedged forward the watchdog killed, a replaced batch
  worker, an I/O blip.  These say nothing durable about the model, so they
  count against a sliding-window circuit breaker: a model accumulating
  ``breaker_threshold`` of them within ``breaker_window`` seconds is
  quarantined for ``cooldown`` seconds, then *probed* (half-open: one
  request at a time) back to health.
* **Integrity** — :class:`~repro.errors.ChecksumMismatchError` or
  :class:`~repro.errors.TruncatedArchiveError` surfacing from a lazy-CRC
  read mid-forward.  The archive backing the model is provably bad, so the
  model quarantines *immediately* and a background reloader re-reads it
  from disk (bounded attempts with the same deterministic jittered backoff
  the job subsystem uses) — the recovery path for "the producer repaired /
  redeployed the file".  A successful reload moves the model to PROBING,
  and probe traffic decides whether it is really back.

State machine (per model)::

    HEALTHY ──transient──► DEGRADED ──breaker trips──► QUARANTINED
       ▲                      │                            │
       │                      └──window drains─────► HEALTHY
       │                                                   │ cooldown /
       │                                                   │ reload OK
       └──────probe successes────── PROBING ◄──────────────┘
                                       │
                                       └──any failure──► QUARANTINED

While QUARANTINED, admission answers :class:`~repro.errors.
ModelQuarantinedError` (→ 503 + ``Retry-After``) instead of letting every
request reach a kernel that will 500 it.  All bookkeeping is
clock-injectable (every method takes an optional ``now``) in the same style
as the batcher's :class:`~repro.serve.batcher.BatchCore`, so the whole
machine is testable without sleeping.  Every transition emits a
``serve.health_transition`` counter event carrying ``from_state``/
``to_state``/``reason`` attrs.

See DESIGN.md §5i.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.errors import (
    ChecksumMismatchError,
    ModelQuarantinedError,
    TruncatedArchiveError,
)
from repro.jobs.retry import backoff_delay
from repro.obs import recorder as obs

#: Health states, in roughly decreasing order of goodness.
HEALTHY = "healthy"
DEGRADED = "degraded"
QUARANTINED = "quarantined"
PROBING = "probing"

STATES = (HEALTHY, DEGRADED, QUARANTINED, PROBING)

#: Errors that prove the archive behind a model is bad: quarantine now,
#: recover by reloading from disk — retrying the forward cannot help.
INTEGRITY_ERRORS: tuple[type[BaseException], ...] = (
    ChecksumMismatchError,
    TruncatedArchiveError,
)


def classify_failure(exc: BaseException) -> str:
    """``"integrity"`` for archive-is-bad errors, ``"transient"`` otherwise."""
    return "integrity" if isinstance(exc, INTEGRITY_ERRORS) else "transient"


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds for one model's health machine (all models share one)."""

    #: Sliding window (seconds) over which transient failures are counted.
    breaker_window: float = 30.0
    #: Transient failures within the window that trip the breaker.
    breaker_threshold: int = 5
    #: Seconds a breaker-tripped quarantine lasts before probing begins.
    cooldown: float = 5.0
    #: Consecutive successful probe batches required to close the breaker.
    probe_successes: int = 2
    #: Seconds after which an unreported probe slot is reclaimed (the probe
    #: request expired in queue, or its handler died).
    probe_timeout: float = 30.0
    #: Bounded background reload attempts per integrity quarantine.
    quarantine_reloads: int = 5
    #: Backoff between reload attempts (jittered exponentially, like the
    #: job subsystem's transient retries).
    reload_backoff_base: float = 0.25
    reload_backoff_cap: float = 2.0

    def __post_init__(self):
        if self.breaker_window <= 0:
            raise ValueError(
                f"breaker_window must be > 0, got {self.breaker_window}")
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}")
        if self.probe_successes < 1:
            raise ValueError(
                f"probe_successes must be >= 1, got {self.probe_successes}")
        if self.quarantine_reloads < 0:
            raise ValueError(
                f"quarantine_reloads must be >= 0, got {self.quarantine_reloads}")


class ModelHealth:
    """One model's health ledger.  Thread-safe; clock passed per call."""

    def __init__(self, name: str, policy: HealthPolicy | None = None):
        self.name = name
        self.policy = policy or HealthPolicy()
        self._lock = threading.Lock()
        self._state = HEALTHY
        self._failures: deque[float] = deque()  # transient failure timestamps
        self._quarantined_at: float | None = None
        self._quarantine_reason: str | None = None
        self._reload_pending = False  # integrity quarantine awaiting reload
        self._reload_attempts = 0
        self._probe_taken_at: float | None = None
        self._probe_successes = 0
        self._trips = 0  # breaker trips, lifetime
        self._quarantines = 0  # quarantine entries, lifetime
        self._last_error: str | None = None

    # ----------------------------------------------------------- transitions
    def _transition(self, to_state: str, reason: str) -> None:
        """Move to ``to_state`` (caller holds the lock) and emit the event."""
        from_state = self._state
        if from_state == to_state:
            return
        self._state = to_state
        obs.counter(
            "serve.health_transition", model=self.name,
            from_state=from_state, to_state=to_state, reason=reason,
        )

    def _enter_quarantine(self, reason: str, now: float) -> None:
        self._quarantined_at = now
        self._quarantine_reason = reason
        self._quarantines += 1
        self._probe_taken_at = None
        self._probe_successes = 0
        self._failures.clear()  # the trip consumed the window
        self._transition(QUARANTINED, reason)

    def _prune(self, now: float) -> None:
        cutoff = now - self.policy.breaker_window
        while self._failures and self._failures[0] <= cutoff:
            self._failures.popleft()

    # ------------------------------------------------------------- admission
    def admit(self, now: float | None = None) -> None:
        """Gate one request, or raise :class:`ModelQuarantinedError` (503).

        A breaker-tripped quarantine whose cooldown has elapsed converts
        this call into the first probe (half-open); while PROBING, one
        probe request is admitted at a time and the rest are told to retry.
        """
        now = time.monotonic() if now is None else now
        with self._lock:
            if self._state in (HEALTHY, DEGRADED):
                return
            if self._state == QUARANTINED:
                if self._reload_pending or self._quarantine_reason in (
                    "integrity", "reload-exhausted"
                ):
                    raise ModelQuarantinedError(
                        f"model {self.name!r} is quarantined "
                        f"({self._quarantine_reason}: {self._last_error}); "
                        f"a reload from disk must succeed before it serves",
                        retry_after=self._integrity_retry_after(),
                        state=QUARANTINED,
                    )
                quarantined_at = (
                    now if self._quarantined_at is None else self._quarantined_at
                )
                elapsed = now - quarantined_at
                if elapsed < self.policy.cooldown:
                    raise ModelQuarantinedError(
                        f"model {self.name!r} is quarantined (circuit breaker "
                        f"tripped); probing begins in "
                        f"{self.policy.cooldown - elapsed:.1f}s",
                        retry_after=max(1.0, self.policy.cooldown - elapsed),
                        state=QUARANTINED,
                    )
                self._transition(PROBING, "cooldown-elapsed")
            # PROBING: one probe in flight at a time; stale slots reclaimed.
            if (self._probe_taken_at is not None
                    and now - self._probe_taken_at <= self.policy.probe_timeout):
                raise ModelQuarantinedError(
                    f"model {self.name!r} is probing; a probe request is "
                    f"already in flight",
                    retry_after=1.0,
                    state=PROBING,
                )
            self._probe_taken_at = now

    def _integrity_retry_after(self) -> float:
        """Hint derived from the reload backoff still ahead of us."""
        remaining = max(0, self.policy.quarantine_reloads - self._reload_attempts)
        if remaining == 0:
            return max(1.0, self.policy.cooldown)
        return max(1.0, backoff_delay(
            self._reload_attempts,
            base=self.policy.reload_backoff_base,
            cap=self.policy.reload_backoff_cap,
            key=self.name,
        ))

    # --------------------------------------------------------------- reports
    def record_success(self, now: float | None = None) -> None:
        """One batch touching this model completed cleanly."""
        now = time.monotonic() if now is None else now
        with self._lock:
            if self._state == PROBING:
                self._probe_taken_at = None
                self._probe_successes += 1
                if self._probe_successes >= self.policy.probe_successes:
                    self._failures.clear()
                    self._last_error = None
                    self._transition(HEALTHY, "probes-passed")
                return
            self._prune(now)
            if self._state == DEGRADED and not self._failures:
                self._transition(HEALTHY, "window-drained")

    def record_failure(self, exc: BaseException,
                       now: float | None = None) -> str:
        """Classify and record one batch failure; returns the kind.

        Integrity errors quarantine immediately (the caller should start a
        background reload); transient errors count against the breaker.
        """
        now = time.monotonic() if now is None else now
        kind = classify_failure(exc)
        with self._lock:
            self._last_error = f"{type(exc).__name__}: {exc}"
            if kind == "integrity":
                self._reload_pending = True
                self._reload_attempts = 0
                self._enter_quarantine("integrity", now)
                return kind
            if self._state == PROBING:
                self._probe_taken_at = None
                self._enter_quarantine("probe-failed", now)
                return kind
            if self._state == QUARANTINED:
                return kind  # already out of service; nothing to count
            self._failures.append(now)
            self._prune(now)
            if len(self._failures) >= self.policy.breaker_threshold:
                self._trips += 1
                self._enter_quarantine("breaker-tripped", now)
            else:
                self._transition(DEGRADED, "transient-failure")
        return kind

    # --------------------------------------------------------------- reloads
    def reload_wanted(self) -> bool:
        """True while an integrity quarantine still wants a reload."""
        with self._lock:
            return (self._state == QUARANTINED and self._reload_pending
                    and self._reload_attempts < self.policy.quarantine_reloads)

    def note_reload_failed(self, exc: BaseException) -> None:
        with self._lock:
            self._reload_attempts += 1
            self._last_error = f"{type(exc).__name__}: {exc}"
            if self._reload_attempts >= self.policy.quarantine_reloads:
                self._quarantine_reason = "reload-exhausted"
        obs.counter("serve.quarantine_reload", model=self.name, outcome="failed")

    def note_reloaded(self, now: float | None = None) -> None:
        """A reload (automatic or manual) swapped in a fresh archive."""
        now = time.monotonic() if now is None else now
        with self._lock:
            if self._state not in (QUARANTINED, PROBING):
                return  # healthy models reload for deploys, not recovery
            self._reload_pending = False
            self._probe_taken_at = None
            self._probe_successes = 0
            self._quarantined_at = now
            self._transition(PROBING, "reloaded")
        obs.counter("serve.quarantine_reload", model=self.name, outcome="ok")

    # ------------------------------------------------------------ inspection
    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def describe(self, now: float | None = None) -> dict:
        """JSON-friendly health summary for ``/healthz``."""
        now = time.monotonic() if now is None else now
        with self._lock:
            self._prune(now)
            return {
                "state": self._state,
                "breaker": {
                    "window_seconds": self.policy.breaker_window,
                    "threshold": self.policy.breaker_threshold,
                    "recent_failures": len(self._failures),
                    "trips": self._trips,
                },
                "quarantines": self._quarantines,
                "quarantine_reason": self._quarantine_reason
                if self._state in (QUARANTINED, PROBING) else None,
                "reload_attempts": self._reload_attempts,
                "last_error": self._last_error,
            }


class HealthMonitor:
    """Health machines for every served model, plus the reload worker.

    The monitor owns one :class:`ModelHealth` per model (created on first
    touch, so registering a model needs no ceremony) and one background
    reloader thread per integrity quarantine: bounded attempts at
    ``registry.reload(name)`` separated by deterministic jittered backoff,
    stopping the moment the archive on disk reads clean again.
    """

    def __init__(self, registry, policy: HealthPolicy | None = None):
        self.registry = registry
        self.policy = policy or HealthPolicy()
        self._lock = threading.Lock()
        self._models: dict[str, ModelHealth] = {}
        self._reloaders: dict[str, threading.Thread] = {}
        self._closed = threading.Event()

    def model(self, name: str) -> ModelHealth:
        with self._lock:
            health = self._models.get(name)
            if health is None:
                health = self._models[name] = ModelHealth(name, self.policy)
            return health

    # ----------------------------------------------------------- batch hooks
    def admit(self, name: str, now: float | None = None) -> None:
        self.model(name).admit(now)

    def report_success(self, name: str, now: float | None = None) -> None:
        self.model(name).record_success(now)

    def report_failure(self, name: str, exc: BaseException,
                       now: float | None = None) -> str:
        kind = self.model(name).record_failure(exc, now)
        if kind == "integrity":
            self._start_reloader(name)
        return kind

    def note_manual_reload(self, name: str) -> None:
        """A ``POST /models/<name>/reload`` succeeded: quarantined models
        move to PROBING; healthy models are untouched."""
        self.model(name).note_reloaded()

    # ------------------------------------------------------------- reloading
    def _start_reloader(self, name: str) -> None:
        with self._lock:
            existing = self._reloaders.get(name)
            if existing is not None and existing.is_alive():
                return  # one reloader per model at a time
            thread = threading.Thread(
                target=self._reload_loop, args=(name,),
                name=f"repro-serve-reloader-{name}", daemon=True,
            )
            self._reloaders[name] = thread
        thread.start()

    def _reload_loop(self, name: str) -> None:
        health = self.model(name)
        for attempt in range(self.policy.quarantine_reloads):
            delay = backoff_delay(
                attempt,
                base=self.policy.reload_backoff_base,
                cap=self.policy.reload_backoff_cap,
                key=name,
            )
            if self._closed.wait(delay):
                return
            if not health.reload_wanted():
                return  # recovered some other way (manual reload), or closed
            try:
                self.registry.reload(name)
            except Exception as exc:  # noqa: BLE001 — any load failure retries
                health.note_reload_failed(exc)
                continue
            health.note_reloaded()
            return

    # -------------------------------------------------------------- lifecycle
    def describe(self, now: float | None = None) -> dict:
        with self._lock:
            models = dict(self._models)
        return {name: health.describe(now)
                for name, health in sorted(models.items())}

    def close(self) -> None:
        """Stop background reloaders (best-effort join)."""
        self._closed.set()
        with self._lock:
            threads = list(self._reloaders.values())
        for thread in threads:
            thread.join(timeout=5.0)
