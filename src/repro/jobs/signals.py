"""Graceful interruption: drain on the first signal, hard-exit on the second.

A durable run should treat Ctrl-C (SIGINT) and a supervisor's SIGTERM as a
request to *stop cleanly*: stop starting new layers, let in-flight layers
finish (their shards and journal records land as usual), flush the
``interrupted`` journal record, and exit with :data:`EXIT_INTERRUPTED` so
callers and shell scripts can distinguish "resume me later" from success
and from failure.  A second signal means "stop NOW" and hard-exits with the
conventional ``128 + signum`` code without any draining.

Exit-code contract (documented in DESIGN.md §5d and README):

* ``0`` — run completed (possibly with degraded layers, as before),
* ``75`` — :data:`EXIT_INTERRUPTED` (BSD ``EX_TEMPFAIL``): gracefully
  interrupted, the job directory is valid, rerun with ``--resume``,
* ``128+signum`` (``130``/``143``) — second signal, hard exit.

Signal handlers can only be installed from the main thread; construct
:class:`GracefulInterrupt` there (the CLI does).  The ``cancel`` event it
exposes is what :func:`repro.core.parallel.quantize_layers` polls before
starting each layer.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
from types import FrameType

#: Exit code of a gracefully interrupted run (BSD sysexits EX_TEMPFAIL):
#: the job is incomplete but resumable.
EXIT_INTERRUPTED = 75

#: Signals a durable run drains on.
DRAIN_SIGNALS = (signal.SIGINT, signal.SIGTERM)


class GracefulInterrupt:
    """Context manager wiring SIGINT/SIGTERM to a drain event.

    Usage::

        with GracefulInterrupt() as interrupt:
            quantized = quantize_state_dict(
                ..., cancel=interrupt.event, job=DurableJob(job_dir)
            )
        if interrupt.triggered:
            sys.exit(EXIT_INTERRUPTED)

    The first signal sets :attr:`event` (and notes which signal in
    :attr:`signum`); the second calls ``os._exit(128 + signum)``
    immediately — no draining, no Python cleanup — because a user mashing
    Ctrl-C wants out *now*.
    """

    def __init__(self, signals: tuple[signal.Signals, ...] = DRAIN_SIGNALS):
        self.signals = signals
        self.event = threading.Event()
        self.signum: int | None = None
        self._count = 0
        self._previous: dict[int, object] = {}

    @property
    def triggered(self) -> bool:
        return self.event.is_set()

    def _handle(self, signum: int, _frame: FrameType | None) -> None:
        self._count += 1
        if self._count >= 2:
            os._exit(128 + signum)
        self.signum = signum
        self.event.set()
        print(
            f"received {signal.Signals(signum).name}: draining in-flight layers "
            f"(signal again to hard-exit); rerun with --resume to continue",
            file=sys.stderr,
            flush=True,
        )

    def __enter__(self) -> "GracefulInterrupt":
        for sig in self.signals:
            self._previous[sig] = signal.getsignal(sig)
            signal.signal(sig, self._handle)
        return self

    def __exit__(self, *_exc) -> None:
        for sig, previous in self._previous.items():
            signal.signal(sig, previous)
        self._previous.clear()
