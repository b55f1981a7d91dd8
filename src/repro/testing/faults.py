"""Deterministic fault injectors for the quantization pipeline and storage.

The layer-parallel engine accepts a ``fault_injector`` hook — called as
``injector(index, job, weights)`` before each layer quantizes — which may
raise (simulating a layer failure) or return a replacement weight array
(poisoning the input).  The injectors here are the deterministic,
worker-count-independent building blocks the robustness test suite uses to
prove every ``on_error``/``validation`` policy path end-to-end:

* :class:`RaiseOnLayer` — fail one specific layer, selected by job index or
  name, every time it is attempted (a persistent fault).
* :class:`RaiseNth` — fail the Nth injector call (1-based, thread-safe);
  with ``times`` it becomes a transient fault that clears after N raises.
* :class:`PoisonTensor` — hand the engine a NaN/Inf/constant-poisoned copy
  of one layer's weights, exercising the validation layer rather than the
  exception path.

Durability-oriented injectors exercise the job subsystem end-to-end:

* :class:`HangOnLayer` — stall the targeted layer (cooperatively: it polls
  :func:`repro.jobs.watchdog.checkpoint`), proving the per-layer deadline
  converts a hang into a ``timeout`` failure.
* :class:`SlowLayer` — delay every (or one) layer by a fixed number of
  seconds; combined with a tight ``layer_timeout`` this also times out, and
  alone it widens the window for signal/kill tests.
* :class:`TransientIOFault` — raise :class:`InjectedIOError` (an ``OSError``)
  the first N attempts of a layer, then succeed: the shape of a flaky
  filesystem or NFS blip the transient-retry loop absorbs in place.
* :class:`CrashOnCall` / :func:`crash_process` — SIGKILL the process on the
  Nth injector call: the crash the journal + ``--resume`` path recovers from.

Process-fleet injectors target one worker *process* of a
``backend="process"`` run (:mod:`repro.jobs.fleet`) by worker id:

* :class:`KillWorker` — SIGKILL the targeted worker mid-layer: the
  supervisor must reassign the leased layer to a survivor.
* :class:`MuteWorker` — mute the worker's heartbeats and wedge it: the
  supervisor's heartbeat deadline must declare it dead and SIGKILL it.
* :class:`HangWorker` — cooperatively hang the worker's current layer while
  heartbeats keep flowing: the *worker-local* deadline must time it out.

Because kill-and-resume tests need faults inside a *subprocess* — and fleet
workers cannot receive injector objects at all (they hold locks, which do
not pickle) — injectors can be described as text specs (``"crash:3"``,
``"hang:layer2"``, ``"slow:0.2"``, ``"transient-io:layer1:2"``,
``"kill-worker:1"``) parsed by :func:`injector_from_spec`; the CLI builds
one from the ``REPRO_FAULTS`` environment variable via
:func:`injector_from_env`, and each fleet worker rebuilds its own from the
spec (stateful injectors count per worker, not globally).  Every value in
a spec is checked when it is parsed (:func:`parse_fault_spec`), so a
malformed spec fails with :class:`~repro.errors.FaultSpecError` before
anything runs instead of misfiring, or never firing, mid-run.

Serve-path injectors target the online request path (:mod:`repro.serve`,
DESIGN.md §5i) rather than the offline engine.  They follow a different
protocol — ``injector(stage, model)`` called at named hook points
(``"forward"`` in the micro-batcher, ``"load"`` in the registry) — and are
parsed from the same ``REPRO_FAULTS`` variable by
:func:`serve_injector_from_env`, so the serve CLI plants chaos exactly the
way the quantize CLI does.  Engine kinds in the spec are checked but not
built by the serve parser and vice versa (the two paths share one
environment variable):

* :class:`HangForward` — wedge the batch worker inside a forward
  (non-cooperatively: a real sleep, like a hung mmap read on failing
  storage).  The batch-worker watchdog must fail the batch within
  ``--forward-timeout`` and replace the worker.
* :class:`FailForward` — raise :class:`InjectedFault` from the forward the
  first N matching calls: transient failures that feed the health
  breaker's sliding window.
* :class:`CorruptMemberAtServe` — raise
  :class:`~repro.errors.ChecksumMismatchError` from the forward, the exact
  error a lazy-CRC check produces when an archive member rots under a
  registered model: the health machine must quarantine the model and
  start background reloads from disk.
* :class:`SlowLoad` — delay archive loads in the registry, widening
  reload/probe race windows.

Storage-level injectors simulate the two ways an archive dies on disk:

* :func:`truncate_file` — a crash mid-write (the container is torn),
* :func:`corrupt_bytes` — bit rot / a flipped byte inside an intact
  container.

None of these depend on pytest; they are plain callables/functions usable
from any harness.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.parallel import LayerJob
from repro.errors import FaultSpecError
from repro.jobs.watchdog import checkpoint

#: Environment variable the CLI reads fault specs from (kill/resume tests).
FAULTS_ENV = "REPRO_FAULTS"

#: Spec kinds handled by the engine parser (:func:`injector_from_spec`);
#: the serve parser skips these, and the engine parser skips
#: :data:`SERVE_FAULT_KINDS`, so one ``REPRO_FAULTS`` value can target
#: both the offline pipeline and the serving runtime.
ENGINE_FAULT_KINDS = frozenset({
    "raise", "hang", "slow", "transient-io", "crash", "poison",
    "kill-worker", "mute-worker", "hang-worker",
})


#: What :class:`PoisonTensor` can do to a tensor.
POISON_MODES = ("nan", "inf", "constant")


class InjectedFault(RuntimeError):
    """The exception type raised by the built-in injectors.

    A distinct type so tests can assert that a captured
    :class:`~repro.core.parallel.LayerFailure` came from the harness and
    not from a genuine defect.
    """


class InjectedIOError(OSError):
    """An injected *transient* fault: an ``OSError`` subclass, so the
    engine's transient-retry classifier (:func:`repro.jobs.retry.is_transient`)
    treats it exactly like a real I/O blip."""


@dataclass
class RaiseOnLayer:
    """Raise whenever the targeted layer is attempted.

    ``layer`` selects by job index (int) or layer name (str).  Persistent:
    retries at higher bit widths hit the same fault, so under
    ``on_error="retry-higher-bits"`` the layer ends in FP32 fallback.
    """

    layer: int | str
    message: str = "injected fault"

    def __call__(self, index: int, job: LayerJob, weights: np.ndarray):
        if self._matches(index, job):
            raise InjectedFault(f"{self.message} (layer {job.name!r}, index {index})")
        return None

    def _matches(self, index: int, job: LayerJob) -> bool:
        if isinstance(self.layer, str):
            return job.name == self.layer
        return index == self.layer


@dataclass
class RaiseNth:
    """Raise on the Nth injector call (1-based), counted thread-safely.

    Under parallel fan-out the *which layer* of the Nth call depends on
    scheduling, but the invariant the robustness suite needs — exactly
    ``times`` injected failures per run — holds for every worker count.
    ``times`` bounds how many calls raise; afterwards the fault clears
    (a transient error).
    """

    nth: int = 1
    times: int = 1
    message: str = "injected transient fault"
    _calls: int = field(default=0, repr=False)
    _raised: int = field(default=0, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __call__(self, index: int, job: LayerJob, weights: np.ndarray):
        with self._lock:
            self._calls += 1
            should_raise = self._calls >= self.nth and self._raised < self.times
            if should_raise:
                self._raised += 1
        if should_raise:
            raise InjectedFault(f"{self.message} (call {self._calls}, layer {job.name!r})")
        return None


@dataclass
class PoisonTensor:
    """Replace the targeted layer's weights with a poisoned copy.

    ``mode`` is one of ``"nan"`` (every ``stride``-th entry becomes NaN),
    ``"inf"`` (same with +inf) or ``"constant"`` (the whole tensor becomes
    one value — a zero-variance tensor).  The poison goes through the
    normal validation path, so this exercises ``validation=`` policies
    rather than the exception-isolation path.
    """

    layer: int | str
    mode: str = "nan"
    stride: int = 7
    value: float = 0.5

    def __post_init__(self) -> None:
        if self.mode not in POISON_MODES:
            raise ValueError(
                f"unknown poison mode {self.mode!r}; expected one of {POISON_MODES}"
            )

    def __call__(self, index: int, job: LayerJob, weights: np.ndarray):
        if not self._matches(index, job):
            return None
        poisoned = np.array(weights, dtype=np.float64, copy=True)
        flat = poisoned.ravel()
        if self.mode == "nan":
            flat[:: self.stride] = np.nan
        elif self.mode == "inf":
            flat[:: self.stride] = np.inf
        else:  # "constant"
            flat[:] = self.value
        return poisoned

    def _matches(self, index: int, job: LayerJob) -> bool:
        if isinstance(self.layer, str):
            return job.name == self.layer
        return index == self.layer


@dataclass
class HangOnLayer:
    """Stall the targeted layer until the per-layer deadline fires.

    The stall is *cooperative*: it spins on
    :func:`repro.jobs.watchdog.checkpoint`, which raises
    :class:`~repro.errors.LayerTimeoutError` the moment the engine's
    per-layer deadline expires — the same mechanism that catches a hang in
    the clustering loop.  ``max_seconds`` is a harness safety net: with no
    deadline armed (no ``layer_timeout``), the hang gives up after that long
    and raises :class:`InjectedFault` instead of wedging the test suite.
    """

    layer: int | str
    max_seconds: float = 30.0

    def __call__(self, index: int, job: LayerJob, weights: np.ndarray):
        if not _matches_layer(self.layer, index, job):
            return None
        give_up = time.monotonic() + self.max_seconds
        while time.monotonic() < give_up:
            checkpoint()  # raises LayerTimeoutError when the deadline expires
            time.sleep(0.002)
        raise InjectedFault(
            f"HangOnLayer gave up after {self.max_seconds}s without a deadline "
            f"(layer {job.name!r}): was layer_timeout set?"
        )


@dataclass
class SlowLayer:
    """Delay layers by ``seconds`` (every layer, or just the targeted one).

    Sleeps in small checkpointed slices, so a ``layer_timeout`` shorter than
    the delay still converts it into a timeout failure promptly.
    """

    seconds: float
    layer: int | str | None = None

    def __call__(self, index: int, job: LayerJob, weights: np.ndarray):
        if self.layer is not None and not _matches_layer(self.layer, index, job):
            return None
        deadline = time.monotonic() + self.seconds
        while time.monotonic() < deadline:
            checkpoint()
            time.sleep(min(0.005, self.seconds))
        return None


@dataclass
class TransientIOFault:
    """Raise :class:`InjectedIOError` the first ``times`` attempts of a layer.

    Counted per layer, thread-safely, across retries: attempt 1..``times``
    raise, attempt ``times+1`` succeeds.  With ``transient_retries >= times``
    the engine absorbs the fault in place and the run's output is
    bit-identical to a fault-free run; with a smaller budget the error
    escalates to the ``on_error`` policy like any other exception.
    """

    layer: int | str
    times: int = 1
    _attempts: dict[str, int] = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __call__(self, index: int, job: LayerJob, weights: np.ndarray):
        if not _matches_layer(self.layer, index, job):
            return None
        with self._lock:
            attempt = self._attempts.get(job.name, 0) + 1
            self._attempts[job.name] = attempt
        if attempt <= self.times:
            raise InjectedIOError(
                f"injected transient I/O fault (layer {job.name!r}, "
                f"attempt {attempt}/{self.times})"
            )
        return None


def crash_process() -> None:
    """SIGKILL the current process: no cleanup, no atexit, no flushing.

    The honest simulation of OOM-kills and power loss — everything not
    already fsynced is lost, which is exactly what the journal's
    append-then-fsync discipline is designed to survive.
    """
    os.kill(os.getpid(), signal.SIGKILL)


@dataclass
class CrashOnCall:
    """SIGKILL the process on the ``nth`` injector call (1-based).

    Counted thread-safely across workers.  Used (via ``REPRO_FAULTS=crash:N``)
    by the kill-and-resume tests: the subprocess dies mid-run, the journal
    keeps every layer that finished, and ``--resume`` completes the rest.
    """

    nth: int = 1
    _calls: int = field(default=0, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __call__(self, index: int, job: LayerJob, weights: np.ndarray):
        with self._lock:
            self._calls += 1
            hit = self._calls == self.nth
        if hit:
            crash_process()
        return None


@dataclass
class KillWorker:
    """SIGKILL fleet worker ``worker`` on its ``nth`` injector call (1-based).

    The canonical fleet chaos fault: targets one worker process by id
    (:func:`repro.jobs.fleet.current_worker_id`), counts calls within that
    worker only, and dies mid-layer with no cleanup.  The supervisor must
    reassign the leased layer to a survivor and the final archive must be
    byte-identical to an undisturbed run.  Outside a fleet worker this
    injector never matches, so the same ``REPRO_FAULTS`` spec is inert
    under the thread backend.
    """

    worker: int
    nth: int = 1
    _calls: int = field(default=0, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __call__(self, index: int, job: LayerJob, weights: np.ndarray):
        from repro.jobs.fleet import current_worker_id

        if current_worker_id() != self.worker:
            return None
        with self._lock:
            self._calls += 1
            hit = self._calls == self.nth
        if hit:
            crash_process()
        return None


@dataclass
class MuteWorker:
    """Silence worker ``worker``'s heartbeats, then wedge it.

    Simulates the worker that is alive but unresponsive — stuck in
    GIL-holding native code, swapping, or otherwise never beating.  The
    fault mutes the heartbeat thread
    (:func:`repro.jobs.fleet.mute_heartbeat`) and then sleeps without
    checkpointing; the supervisor must notice the silence, SIGKILL the
    worker and reassign its layer.  ``max_seconds`` bounds the wedge so a
    misconfigured harness fails loudly instead of hanging.
    """

    worker: int
    max_seconds: float = 30.0

    def __call__(self, index: int, job: LayerJob, weights: np.ndarray):
        from repro.jobs.fleet import current_worker_id, mute_heartbeat

        if current_worker_id() != self.worker:
            return None
        mute_heartbeat()
        time.sleep(self.max_seconds)  # the supervisor SIGKILLs us long before
        raise InjectedFault(
            f"MuteWorker outlived {self.max_seconds}s of silence "
            f"(layer {job.name!r}): did the supervisor's liveness check run?"
        )


@dataclass
class HangWorker:
    """Cooperatively hang worker ``worker``'s current layer.

    The fleet counterpart of :class:`HangOnLayer`: the stall polls
    :func:`repro.jobs.watchdog.checkpoint`, so the *worker-local* deadline
    converts it into a ``timeout`` failure while heartbeats keep flowing —
    proving per-layer deadlines still work inside fleet workers, distinct
    from the heartbeat-silence path :class:`MuteWorker` exercises.
    """

    worker: int
    max_seconds: float = 30.0

    def __call__(self, index: int, job: LayerJob, weights: np.ndarray):
        from repro.jobs.fleet import current_worker_id

        if current_worker_id() != self.worker:
            return None
        give_up = time.monotonic() + self.max_seconds
        while time.monotonic() < give_up:
            checkpoint()  # raises LayerTimeoutError when the deadline expires
            time.sleep(0.002)
        raise InjectedFault(
            f"HangWorker gave up after {self.max_seconds}s without a deadline "
            f"(layer {job.name!r}): was layer_timeout set?"
        )


def _matches_layer(selector: int | str, index: int, job: LayerJob) -> bool:
    if isinstance(selector, str):
        return job.name == selector
    return index == selector


# --------------------------------------------------------------------------
# Serve-path injectors: protocol injector(stage, model), stages "forward"
# (micro-batcher, before each model forward) and "load" (registry, before
# each archive load).  See DESIGN.md §5i.

#: Spec kinds handled by the serve parser (and skipped by the engine one).
SERVE_FAULT_KINDS = frozenset(
    {"hang-forward", "fail-forward", "corrupt-member-at-serve", "slow-load"}
)


@dataclass
class HangForward:
    """Wedge the batch worker inside a forward for ``seconds``.

    The sleep is deliberately *non-cooperative* (no checkpoints): this is
    the hung-mmap-read / stuck-native-code hang class only an external
    watchdog can catch.  Fires on the first ``times`` forwards of ``model``
    (None = any model), then clears — so a replaced worker's retry of the
    next request succeeds, proving recovery.
    """

    model: str | None = None
    seconds: float = 30.0
    times: int = 1
    _hits: int = field(default=0, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __call__(self, stage: str, model: str) -> None:
        if stage != "forward" or self.model not in (None, model):
            return
        with self._lock:
            if self._hits >= self.times:
                return
            self._hits += 1
        time.sleep(self.seconds)


@dataclass
class FailForward:
    """Raise :class:`InjectedFault` from the first ``times`` forwards of
    ``model`` (None = any model; ``times=0`` = every forward, persistent).

    The transient-failure shape the health breaker counts: enough of these
    inside the breaker window must trip the model into quarantine.
    """

    model: str | None = None
    times: int = 1
    _hits: int = field(default=0, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __call__(self, stage: str, model: str) -> None:
        if stage != "forward" or self.model not in (None, model):
            return
        with self._lock:
            if self.times and self._hits >= self.times:
                return
            self._hits += 1
            hit = self._hits
        raise InjectedFault(
            f"injected forward failure (model {model!r}, hit {hit})"
        )


@dataclass
class CorruptMemberAtServe:
    """Surface a lazy-CRC integrity error mid-forward.

    Raises :class:`~repro.errors.ChecksumMismatchError` — the exact type a
    ``verify="lazy"`` member read produces on bit rot — from the first
    ``times`` forwards of ``model``.  Deterministic regardless of which
    members earlier batches already touched and cached, which is what makes
    it usable from a live chaos script; the genuinely-corrupt-bytes path is
    covered by the in-process self-healing suite, which flips real bytes on
    disk before first touch.
    """

    model: str | None = None
    times: int = 1
    _hits: int = field(default=0, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __call__(self, stage: str, model: str) -> None:
        from repro.errors import ChecksumMismatchError

        if stage != "forward" or self.model not in (None, model):
            return
        with self._lock:
            if self.times and self._hits >= self.times:
                return
            self._hits += 1
        raise ChecksumMismatchError(
            f"injected member CRC mismatch for model {model!r} "
            f"(corrupt-member-at-serve)"
        )


@dataclass
class SlowLoad:
    """Delay every archive load (or just ``model``'s) by ``seconds``.

    Exercises that a slow quarantine reload or hot-swap never blocks the
    request path of *other* models, and widens probe/reload race windows
    for tests.
    """

    seconds: float
    model: str | None = None

    def __call__(self, stage: str, model: str) -> None:
        if stage != "load" or self.model not in (None, model):
            return
        time.sleep(self.seconds)


def compose_serve_injectors(*injectors):
    """Chain serve injectors: each may sleep or raise; first raise wins."""

    def injector(stage: str, model: str) -> None:
        for inject in injectors:
            inject(stage, model)

    return injector


def serve_injector_from_spec(spec: str):
    """Build a serve-path injector from a comma-separated text spec.

    Forms (``MODEL`` is a registered model name)::

        hang-forward:MODEL[:SECONDS[:TIMES]]    HangForward
        fail-forward:MODEL[:TIMES]              FailForward (0 = persistent)
        corrupt-member-at-serve:MODEL[:TIMES]   CorruptMemberAtServe (0 = persistent)
        slow-load:SECONDS[:MODEL]               SlowLoad

    Engine-side kinds (``crash:3``, ``kill-worker:1``, ...) in the same
    spec are checked but not built, so one ``REPRO_FAULTS`` value can carry
    faults for both paths.  Returns None when the spec contains no serve
    faults; raises :class:`~repro.errors.FaultSpecError` on any malformed
    fault of either family (see :func:`parse_fault_spec`).
    """
    injectors = [inj for kind, inj in parse_fault_spec(spec) if kind in SERVE_FAULT_KINDS]
    if not injectors:
        return None
    return injectors[0] if len(injectors) == 1 else compose_serve_injectors(*injectors)


def serve_injector_from_env(env: str = FAULTS_ENV):
    """Serve-path injector described by ``REPRO_FAULTS`` (None when unset)."""
    spec = os.environ.get(env, "")
    return serve_injector_from_spec(spec) if spec.strip() else None


#: Arguments each spec kind takes: (required, allowed).
_ARITY = {
    "raise": (1, 1), "hang": (1, 1), "slow": (1, 2), "transient-io": (1, 2),
    "crash": (1, 1), "poison": (1, 2), "kill-worker": (1, 2),
    "mute-worker": (1, 2), "hang-worker": (1, 2),
    "hang-forward": (1, 3), "fail-forward": (1, 2),
    "corrupt-member-at-serve": (1, 2), "slow-load": (1, 2),
}


def _seconds(token: str) -> float:
    """A delay in seconds: finite, >= 0, and short enough for ``time.sleep``."""
    value = float(token)
    if not 0 <= value <= threading.TIMEOUT_MAX:
        raise ValueError(
            f"seconds must be finite, >= 0 and at most {threading.TIMEOUT_MAX:g}, "
            f"got {token!r}"
        )
    return value


def _count(token: str, minimum: int = 1) -> int:
    """A call count or 1-based call number (``minimum=0``: a worker index,
    or a TIMES where 0 means persistent)."""
    value = int(token)
    if value < minimum:
        raise ValueError(f"expected an integer >= {minimum}, got {token!r}")
    return value


def _name(token: str) -> str:
    """A model name."""
    if not token:
        raise ValueError("empty model name")
    return token


def _parse_layer(token: str) -> int | str:
    """Layer selector from a spec token: a job index (>= 0) or a layer name."""
    if not token:
        raise ValueError("empty layer selector")
    try:
        index = int(token)
    except ValueError:
        return token
    if index < 0:
        raise ValueError(f"layer index must be >= 0, got {token!r}")
    return index


def _optional(args: list[str], index: int, parse, default):
    return parse(args[index]) if len(args) > index else default


def _build(kind: str, args: list[str]):
    """One injector of either family from its already arity-checked args."""
    if kind == "raise":
        return RaiseOnLayer(_parse_layer(args[0]))
    if kind == "hang":
        return HangOnLayer(_parse_layer(args[0]))
    if kind == "slow":
        return SlowLayer(_seconds(args[0]), layer=_optional(args, 1, _parse_layer, None))
    if kind == "transient-io":
        return TransientIOFault(_parse_layer(args[0]), times=_optional(args, 1, _count, 1))
    if kind == "crash":
        return CrashOnCall(_count(args[0]))
    if kind == "poison":
        return PoisonTensor(_parse_layer(args[0]), mode=_optional(args, 1, str, "nan"))
    if kind == "kill-worker":
        return KillWorker(_count(args[0], 0), nth=_optional(args, 1, _count, 1))
    if kind in ("mute-worker", "hang-worker"):
        cls = MuteWorker if kind == "mute-worker" else HangWorker
        return cls(_count(args[0], 0), max_seconds=_optional(args, 1, _seconds, 30.0))
    if kind == "hang-forward":
        return HangForward(
            _name(args[0]),
            seconds=_optional(args, 1, _seconds, 30.0),
            times=_optional(args, 2, _count, 1),
        )
    if kind in ("fail-forward", "corrupt-member-at-serve"):
        cls = FailForward if kind == "fail-forward" else CorruptMemberAtServe
        return cls(_name(args[0]), times=_optional(args, 1, lambda t: _count(t, 0), 1))
    # "slow-load", the only kind left in _ARITY.
    return SlowLoad(_seconds(args[0]), model=_optional(args, 1, _name, None))


def parse_fault_spec(spec: str) -> list[tuple[str, object]]:
    """``(kind, injector)`` for every fault in a comma-separated spec, of
    both families, in spec order.

    Every value is checked here, not when the fault fires: seconds must be
    finite and >= 0, call counts >= 1 (except a serve TIMES, where 0 means
    persistent), worker indexes and layer indexes >= 0, names non-empty
    and the poison mode one of :data:`POISON_MODES`.  Anything else raises
    :class:`~repro.errors.FaultSpecError` (a ``ValueError``) naming the
    offending part — a silently ignored or never-firing fault would make a
    chaos test pass vacuously.
    """
    faults = []
    for part in (p.strip() for p in spec.split(",")):
        if not part:
            continue
        kind, _, rest = part.partition(":")
        args = rest.split(":") if rest else []
        try:
            if kind not in _ARITY:
                raise ValueError(f"unknown fault kind {kind!r}")
            low, high = _ARITY[kind]
            if not low <= len(args) <= high:
                raise ValueError(
                    f"{kind} takes {low}-{high} arguments, got {len(args)}"
                )
            faults.append((kind, _build(kind, args)))
        except ValueError as exc:
            raise FaultSpecError(f"bad fault spec {part!r}: {exc}") from exc
    return faults


def injector_from_spec(spec: str):
    """Build a fault injector from a comma-separated text spec.

    Forms (``LAYER`` is a job index or a layer name)::

        raise:LAYER               RaiseOnLayer
        hang:LAYER                HangOnLayer
        slow:SECONDS[:LAYER]      SlowLayer
        transient-io:LAYER[:N]    TransientIOFault (default N=1)
        crash:NTH                 CrashOnCall
        poison:LAYER[:MODE]       PoisonTensor (MODE nan, inf or constant)
        kill-worker:W[:NTH]       KillWorker (fleet worker W, default NTH=1)
        mute-worker:W[:MAXS]      MuteWorker (fleet worker W)
        hang-worker:W[:MAXS]      HangWorker (fleet worker W)

    Serve-path kinds in the same spec are checked but not built.  Returns
    None when the spec contains no engine faults; raises
    :class:`~repro.errors.FaultSpecError` on any malformed fault of either
    family (see :func:`parse_fault_spec`).
    """
    injectors = [inj for kind, inj in parse_fault_spec(spec) if kind in ENGINE_FAULT_KINDS]
    if not injectors:
        return None
    return injectors[0] if len(injectors) == 1 else compose_injectors(*injectors)


def injector_from_env(env: str = FAULTS_ENV):
    """Injector described by the ``REPRO_FAULTS`` environment variable.

    Returns None when unset/empty — the universal production case; the
    variable exists so kill-and-resume tests can plant faults inside a CLI
    subprocess without test-only flags.
    """
    spec = os.environ.get(env, "")
    return injector_from_spec(spec) if spec.strip() else None


def compose_injectors(*injectors):
    """Chain injectors: each may raise; the first replacement array wins
    as input to the injectors after it."""

    def injector(index: int, job: LayerJob, weights: np.ndarray):
        replaced = None
        for inject in injectors:
            outcome = inject(index, job, replaced if replaced is not None else weights)
            if outcome is not None:
                replaced = outcome
        return replaced

    return injector


def truncate_file(path: str | Path, keep: int | float) -> int:
    """Truncate the file at ``path``, simulating a crash mid-write.

    ``keep`` is an absolute byte count (int) or a fraction of the current
    size (float in (0, 1)).  Returns the resulting size in bytes.
    """
    path = Path(path)
    size = path.stat().st_size
    if isinstance(keep, float):
        if not 0.0 <= keep < 1.0:
            raise ValueError(f"fractional keep must be in [0, 1), got {keep}")
        keep_bytes = int(size * keep)
    else:
        keep_bytes = min(int(keep), size)
    data = path.read_bytes()[:keep_bytes]
    path.write_bytes(data)
    return keep_bytes


def corrupt_bytes(path: str | Path, offset: int, xor: int = 0xFF, count: int = 1) -> None:
    """Flip bits in ``count`` bytes at ``offset``, simulating bit rot.

    ``offset`` may be negative (from the end).  ``xor`` is the mask applied
    to each byte (default 0xFF: invert); it must be non-zero, otherwise
    nothing would change.
    """
    if xor == 0:
        raise ValueError("xor mask 0 would be a no-op")
    path = Path(path)
    data = bytearray(path.read_bytes())
    if offset < 0:
        offset += len(data)
    if not 0 <= offset < len(data):
        raise ValueError(f"offset {offset} outside file of {len(data)} bytes")
    for i in range(offset, min(offset + count, len(data))):
        data[i] ^= xor
    path.write_bytes(bytes(data))
