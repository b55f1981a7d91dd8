"""Deterministic fault injection for the quantization pipeline, the serving
runtime and storage.

Every hook site calls one protocol, ``fault(hook, keys, value=None)``,
which returns ``value`` (or a replacement for it) and may sleep, raise or
kill the process on the way.  Three hooks call it:

* ``"layer"`` — :meth:`repro.core.parallel.JobRunner.attempt`, before each
  layer attempt, with keys ``(index, layer_name)`` and the layer's weights
  as the value (a replacement poisons the input);
* ``"forward"`` — :class:`repro.serve.batcher.MicroBatcher`, before each
  model forward, with keys ``(model,)``;
* ``"load"`` — :class:`repro.serve.registry.ModelRegistry`, before each
  archive load, with keys ``(model,)``.

A :class:`Fault` acts only at its own ``hook``, on calls whose keys hold its
``target`` (a job index, a layer or model name; None matches every call).
It counts those matching calls thread-safely, and fires on calls ``nth``
through ``nth + times - 1`` (``times=0``: every matching call from the
``nth`` on).
What firing does is its ``kind``:

* ``raise`` — raise :class:`InjectedFault`;
* ``io`` — raise :class:`InjectedIOError`, an ``OSError`` the engine's
  transient-retry loop absorbs like a real I/O blip;
* ``crc`` — raise :class:`~repro.errors.ChecksumMismatchError`, the error a
  lazy member-CRC check raises on bit rot, so the serve health machine
  quarantines the model;
* ``slow`` — sleep ``seconds`` in slices that poll
  :func:`repro.jobs.watchdog.checkpoint`, so a layer deadline still fires;
* ``hang`` — poll ``checkpoint()`` until the layer deadline converts the
  stall into a timeout, giving up after ``seconds`` with InjectedFault;
* ``wedge`` — sleep ``seconds`` without checkpoints, the hung-native-code
  class only an outside watchdog catches;
* ``crash`` — SIGKILL the process (:func:`crash_process`), the crash the
  journal and ``--resume`` recover from;
* ``poison`` — return a NaN/Inf/constant-poisoned copy of the weights
  (``mode``), exercising ``validation=`` instead of ``on_error=``.

``repro quantize`` and ``repro serve`` build theirs from the text spec in
``REPRO_FAULTS`` (:func:`injector_from_env`; grammar in
:func:`parse_fault_spec`).  A fault acts only at its own hook, so one spec
can carry faults for all three.  Every value in a spec is checked when it
is parsed: a malformed spec fails with :class:`~repro.errors.FaultSpecError`
before anything runs instead of misfiring, or never firing, mid-run.

Storage-level helpers simulate the two ways an archive dies on disk:
:func:`truncate_file` (a crash mid-write tears the container) and
:func:`corrupt_bytes` (bit rot inside an intact container).

Nothing here depends on pytest.
"""

from __future__ import annotations

import functools
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ChecksumMismatchError, FaultSpecError
from repro.jobs.watchdog import checkpoint

#: Environment variable the CLIs read fault specs from.
FAULTS_ENV = "REPRO_FAULTS"

#: What a fault does when it fires (see the module docstring).
FAULT_KINDS = ("raise", "io", "crc", "slow", "hang", "wedge", "crash", "poison")

#: Where a fault can fire.
HOOKS = ("layer", "forward", "load")

#: What a ``poison`` fault can do to a tensor.
POISON_MODES = ("nan", "inf", "constant")

#: ``nan``/``inf`` poison hits every POISON_STRIDE-th entry; ``constant``
#: sets the whole tensor to POISON_FILL (a zero-variance tensor).
POISON_STRIDE = 7
POISON_FILL = 0.5


class InjectedFault(RuntimeError):
    """The exception type raised by the built-in faults.

    A distinct type so tests can assert that a captured
    :class:`~repro.core.parallel.LayerFailure` came from the harness and
    not from a genuine defect.
    """


class InjectedIOError(OSError):
    """An injected *transient* fault: an ``OSError`` subclass, so the
    engine's transient-retry classifier (:func:`repro.jobs.retry.is_transient`)
    treats it exactly like a real I/O blip."""


def crash_process() -> None:
    """SIGKILL the current process: no cleanup, no atexit, no flushing.

    The honest simulation of OOM-kills and power loss — everything not
    already fsynced is lost, which is exactly what the journal's
    append-then-fsync discipline is designed to survive.
    """
    os.kill(os.getpid(), signal.SIGKILL)


@dataclass
class Fault:
    """One injected fault, called as ``fault(hook, keys, value)``.

    ``target`` selects calls by key (None: every call at ``hook``);
    ``nth`` and ``times`` pick which matching calls fire (``times=0``: all
    from the ``nth`` on).  ``seconds`` is how long ``slow`` and ``wedge``
    sleep and when ``hang`` gives up; ``mode`` is what ``poison`` does.
    """

    kind: str
    hook: str = "layer"
    target: int | str | None = None
    nth: int = 1
    times: int = 0
    seconds: float = 30.0
    mode: str = "nan"
    _calls: int = field(default=0, init=False, repr=False, compare=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for what, value, allowed in (
            ("fault kind", self.kind, FAULT_KINDS),
            ("hook", self.hook, HOOKS),
            ("poison mode", self.mode, POISON_MODES),
        ):
            if value not in allowed:
                raise ValueError(f"unknown {what} {value!r}; expected one of {allowed}")

    def __call__(self, hook: str, keys: tuple, value=None):
        if hook != self.hook or (self.target is not None and self.target not in keys):
            return value
        with self._lock:
            self._calls += 1
            call = self._calls
        if call < self.nth or (self.times and call >= self.nth + self.times):
            return value
        where = f"{hook} {', '.join(map(repr, keys))}, call {call}"
        if self.kind == "poison":
            poisoned = np.array(value, dtype=np.float64, copy=True)
            flat = poisoned.ravel()
            if self.mode == "constant":
                flat[:] = POISON_FILL
            else:
                flat[::POISON_STRIDE] = np.nan if self.mode == "nan" else np.inf
            return poisoned
        if self.kind == "crash":
            crash_process()
        if self.kind == "wedge":
            time.sleep(self.seconds)  # no checkpoints: only an outside watchdog stops it
        elif self.kind in ("slow", "hang"):
            until = time.monotonic() + self.seconds
            while time.monotonic() < until:
                checkpoint()  # raises LayerTimeoutError once the layer deadline passes
                time.sleep(min(0.002, self.seconds))
        if self.kind == "hang":
            raise InjectedFault(
                f"injected hang fault outlived {self.seconds}s ({where}): "
                "was layer_timeout set?"
            )
        if self.kind == "raise":
            raise InjectedFault(f"injected fault ({where})")
        if self.kind == "io":
            raise InjectedIOError(f"injected transient I/O fault ({where})")
        if self.kind == "crc":
            raise ChecksumMismatchError(f"injected member CRC mismatch ({where})")
        return value


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
    """A call count or 1-based call number (``minimum=0``: a TIMES where 0
    means persistent)."""
    value = int(token)
    if value < minimum:
        raise ValueError(f"expected an integer >= {minimum}, got {token!r}")
    return value


_nonnegative = functools.partial(_count, minimum=0)


def _name(token: str) -> str:
    """A model name."""
    if not token:
        raise ValueError("empty model name")
    return token


def _layer(token: str) -> int | str:
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


#: Spec kind -> (the Fault fields it fixes, one ``(field, parser)`` per
#: argument).  The first argument is required, the rest optional.
_SPEC_KINDS = {
    "raise": ({"kind": "raise"}, [("target", _layer)]),
    "hang": ({"kind": "hang"}, [("target", _layer)]),
    "slow": ({"kind": "slow"}, [("seconds", _seconds), ("target", _layer)]),
    "transient-io": ({"kind": "io", "times": 1}, [("target", _layer), ("times", _count)]),
    "crash": ({"kind": "crash", "times": 1}, [("nth", _count)]),
    "poison": ({"kind": "poison"}, [("target", _layer), ("mode", str)]),
    "hang-forward": (
        {"kind": "wedge", "hook": "forward", "times": 1},
        [("target", _name), ("seconds", _seconds), ("times", _count)],
    ),
    "fail-forward": (
        {"kind": "raise", "hook": "forward", "times": 1},
        [("target", _name), ("times", _nonnegative)],
    ),
    "corrupt-member-at-serve": (
        {"kind": "crc", "hook": "forward", "times": 1},
        [("target", _name), ("times", _nonnegative)],
    ),
    "slow-load": ({"kind": "wedge", "hook": "load"}, [("seconds", _seconds), ("target", _name)]),
}


def parse_fault_spec(spec: str) -> list[Fault]:
    """Every fault in a comma-separated ``REPRO_FAULTS`` spec, in order.

    Forms (``LAYER`` is a job index or a layer name, ``MODEL`` a served
    model name)::

        raise:LAYER                            every attempt raises InjectedFault
        hang:LAYER                             hang until the layer deadline
        slow:SECONDS[:LAYER]                   every (or one) layer sleeps
        transient-io:LAYER[:N]                 first N attempts raise InjectedIOError
        crash:NTH                              SIGKILL on the NTH layer call
        poison:LAYER[:MODE]                    poisoned weights (nan, inf, constant)
        hang-forward:MODEL[:SECONDS[:TIMES]]   first TIMES forwards wedge
        fail-forward:MODEL[:TIMES]             first TIMES forwards raise (0 = all)
        corrupt-member-at-serve:MODEL[:TIMES]  ...raise a CRC mismatch (0 = all)
        slow-load:SECONDS[:MODEL]              every archive load sleeps

    Defaults: ``N``, ``NTH`` and ``TIMES`` 1, ``SECONDS`` 30.  Every value
    is checked here, not when the fault fires: seconds must be finite and
    >= 0, call counts >= 1 (except a forward TIMES, where 0 means
    persistent), layer indexes >= 0, names non-empty and the poison mode
    one of :data:`POISON_MODES`.  Anything
    else raises :class:`~repro.errors.FaultSpecError` (a ``ValueError``)
    naming the offending part — a silently ignored or never-firing fault
    would make a chaos test pass vacuously.
    """
    faults = []
    for part in (p.strip() for p in spec.split(",")):
        if not part:
            continue
        kind, _, rest = part.partition(":")
        args = rest.split(":") if rest else []
        try:
            if kind not in _SPEC_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
            fixed, parsers = _SPEC_KINDS[kind]
            if not 1 <= len(args) <= len(parsers):
                raise ValueError(
                    f"{kind} takes 1-{len(parsers)} arguments, got {len(args)}"
                )
            parsed = {name: parse(arg) for (name, parse), arg in zip(parsers, args)}
            faults.append(Fault(**{**fixed, **parsed}))
        except ValueError as exc:
            raise FaultSpecError(f"bad fault spec {part!r}: {exc}") from exc
    return faults


def injector_from_spec(spec: str):
    """One injector for every fault in ``spec`` (see :func:`parse_fault_spec`):
    None when there are none, the :class:`Fault` itself when there is one."""
    faults = parse_fault_spec(spec)
    if not faults:
        return None
    return faults[0] if len(faults) == 1 else compose_injectors(*faults)


def injector_from_env(env: str = FAULTS_ENV):
    """Injector described by the ``REPRO_FAULTS`` environment variable.

    Returns None when unset/empty — the universal production case; the
    variable exists so chaos and kill-and-resume tests can plant faults
    inside a CLI subprocess without test-only flags.
    """
    spec = os.environ.get(env, "")
    return injector_from_spec(spec) if spec.strip() else None


def _chain(faults: tuple, hook: str, keys: tuple, value=None):
    for fault in faults:
        value = fault(hook, keys, value)
    return value


def compose_injectors(*faults):
    """Chain faults: each may raise, and each sees the value the ones before
    it returned."""
    return functools.partial(_chain, faults)


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
