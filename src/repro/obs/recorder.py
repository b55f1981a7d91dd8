"""Process-wide recorder: spans, metric emits, sinks and scopes.

The recorder is a module-level broadcast point.  Instrumented code calls the
emit helpers (:func:`span`, :func:`counter`, :func:`gauge`,
:func:`histogram`, :func:`trace_event`); each call builds one schema-valid
event dict and hands it to every installed sink plus every active scope.

Design constraints (see ISSUE 4 / DESIGN.md §5c):

* **Default-off-cheap.** With no sinks and no scopes installed every emit
  helper returns after one truth test; no event dict is built.  Spans still
  measure their duration (callers like the parallel engine consume it
  directly), but a :func:`time.perf_counter` pair is all they cost.
* **Zero perturbation.** Nothing here touches the quantization numerics;
  instrumentation only observes.  Quantized output is bit-identical with
  tracing on or off.
* **Thread-aware nesting.** The span stack is thread-local, so a span opened
  in a worker thread nests under that thread's spans only.  Events inherit
  the merged ``attrs`` of their enclosing spans (innermost wins), which is
  how a ``clustering.l1`` trace emitted deep inside ``quantize_tensor``
  carries the ``layer=...`` attribute that only the engine knows.
* **Scopes.** :func:`scope` attaches a temporary in-memory collector that
  sees every event recorded while it is active (all threads).  The parallel
  engine uses one per run to attach a :class:`~repro.obs.metrics.MetricsSnapshot`
  to its report even when no sink is installed.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

from repro.obs.events import SCHEMA_VERSION
from repro.obs.sinks import MemorySink, Sink

_lock = threading.RLock()
_sinks: list[Sink] = []
_scopes: list[MemorySink] = []
_local = threading.local()


def recording_active() -> bool:
    """True when at least one sink or scope will receive events."""
    return bool(_sinks or _scopes)


def install(sink: Sink) -> Sink:
    """Attach ``sink`` to the process-wide recorder; returns it."""
    with _lock:
        _sinks.append(sink)
    return sink


def uninstall(sink: Sink) -> None:
    """Detach ``sink``; unknown sinks are ignored."""
    with _lock:
        try:
            _sinks.remove(sink)
        except ValueError:
            pass


def installed_sinks() -> tuple[Sink, ...]:
    with _lock:
        return tuple(_sinks)


@contextmanager
def recording(sink: Sink) -> Iterator[Sink]:
    """Install ``sink`` for the duration of a ``with`` block, then close it."""
    install(sink)
    try:
        yield sink
    finally:
        uninstall(sink)
        sink.close()


@contextmanager
def scope() -> Iterator[MemorySink]:
    """Collect every event recorded inside the block into a MemorySink.

    Scopes stack and see events from all threads; they are how callers get a
    :class:`MetricsSnapshot` of one region without installing a global sink.
    """
    collector = MemorySink()
    with _lock:
        _scopes.append(collector)
    try:
        yield collector
    finally:
        with _lock:
            try:
                _scopes.remove(collector)
            except ValueError:
                pass


def _record(event: dict) -> None:
    with _lock:
        for sink in _sinks:
            sink.emit(event)
        for collector in _scopes:
            collector.emit(event)


def _span_stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def capture_context() -> tuple["Span", ...]:
    """Snapshot this thread's span stack for re-attachment elsewhere.

    Thread pools break span nesting by default — a span opened on the
    submitting thread is invisible to the worker.  Capture the context at
    submission time and wrap the worker body in :func:`use_context` so
    events keep their parent and inherited attrs at any worker count.
    """
    return tuple(_span_stack())


@contextmanager
def use_context(spans: tuple["Span", ...]) -> Iterator[None]:
    """Make ``spans`` this thread's ambient span stack for the block."""
    previous = getattr(_local, "stack", None)
    _local.stack = list(spans)
    try:
        yield
    finally:
        _local.stack = previous if previous is not None else []


def _context() -> tuple[str | None, dict]:
    """(parent span name, merged ancestor attrs) for this thread."""
    stack = getattr(_local, "stack", None)
    if not stack:
        return None, {}
    merged: dict = {}
    for span_ in stack:
        merged.update(span_.attrs)
    return stack[-1].name, merged


def _event(kind: str, name: str, attrs: dict, **payload) -> dict:
    parent, inherited = _context()
    if inherited:
        inherited = dict(inherited)
        inherited.update(attrs)
        attrs = inherited
    return {
        "v": SCHEMA_VERSION,
        "event": kind,
        "name": name,
        "ts": time.time(),
        "parent": parent,
        "attrs": attrs,
        **payload,
    }


def counter(name: str, value: float = 1.0, **attrs) -> None:
    """Record a monotonic increment of ``value`` on counter ``name``."""
    if not (_sinks or _scopes):  # recording_active(), inlined: kernels count every call
        return
    _record(_event("counter", name, attrs, value=float(value)))


def gauge(name: str, value: float, **attrs) -> None:
    """Record the current level of gauge ``name``.

    Non-finite values are dropped silently: NaN/Inf have no JSON encoding
    and no meaningful aggregation (e.g. the compression ratio of an empty
    model is infinite by convention, not observably infinite).
    """
    if not recording_active():
        return
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        return
    _record(_event("gauge", name, attrs, value=value))


def histogram(name: str, value: float, **attrs) -> None:
    """Record one observation of histogram ``name``."""
    if not recording_active():
        return
    _record(_event("histogram", name, attrs, value=float(value)))


def trace_event(name: str, values, **attrs) -> None:
    """Record an ordered numeric series (e.g. an L1-norm trajectory)."""
    if not recording_active():
        return
    _record(_event("trace", name, attrs, values=[float(v) for v in values]))


class Span:
    """A timed, nestable region.

    Use as a context manager::

        with span("engine.layer", layer=name, bits=3) as sp:
            ...work...
            sp.set(iterations=7)          # attach attrs discovered mid-span
        report_seconds = sp.duration      # valid after exit, recorder or not

    The span *always* measures its duration (callers consume it even with
    tracing off) but only emits an event — at exit, so late attrs are
    included — when the recorder is active.  If the body raises, the event
    still fires with an ``error`` attr naming the exception type.
    """

    __slots__ = ("name", "attrs", "duration", "_start")

    def __init__(self, name: str, **attrs):
        self.name = name
        self.attrs = attrs
        self.duration = 0.0
        self._start = 0.0

    def set(self, **attrs) -> "Span":
        """Merge ``attrs`` into the span before it is emitted."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        _span_stack().append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = time.perf_counter() - self._start
        stack = _span_stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # pragma: no cover — unbalanced nesting
            stack.remove(self)
        if recording_active():
            if exc_type is not None:
                self.attrs.setdefault("error", exc_type.__name__)
            _record(_event("span", self.name, dict(self.attrs), duration=self.duration))
        return None


def span(name: str, **attrs) -> Span:
    """Create a :class:`Span`; open it with ``with``."""
    return Span(name, **attrs)
