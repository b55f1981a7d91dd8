"""Durable quantization jobs: checkpoint/resume, deadlines, graceful exits.

A whole-model GOBO run is embarrassingly parallel *in space* (every layer is
independent — :mod:`repro.core.parallel`) but, before this package, it was
all-or-nothing *in time*: a crash, a hung layer or a Ctrl-C threw away every
completed layer.  This package wraps the layer-parallel engine in a
supervised, resumable run:

* :mod:`repro.jobs.journal` — a checksummed JSONL journal plus per-layer
  shard files; every completed layer is durably recorded the moment it
  finishes (write + fsync), so no completed work is ever lost.
* :mod:`repro.jobs.runner` — :class:`DurableJob`, passed to the engine as
  ``job=``, journals each layer as it completes and, on ``resume=True``,
  loads journaled layers from their shards so only the remainder is
  quantized.  The final archive is **bit-identical** to an uninterrupted
  run at any worker count.
* :mod:`repro.jobs.watchdog` — per-layer deadlines: a cooperative
  :class:`Deadline` checked inside the clustering iteration loop, converting
  a hung layer into a ``LayerFailure(action="timeout")`` instead of a
  stalled run.
* :mod:`repro.jobs.retry` — transient-error classification and exponential
  backoff used by the engine to retry I/O-flavoured failures in place
  before any ``on_error`` policy fires.
* :mod:`repro.jobs.signals` — SIGINT/SIGTERM handling that drains in-flight
  layers, flushes the journal, and exits with :data:`EXIT_INTERRUPTED`
  (a second signal hard-exits immediately).

The journal is the one crash-recovery mechanism: a run killed outright
(SIGKILL, OOM, power loss) loses only its in-flight layers, and
``--resume`` rebuilds a byte-identical archive.

Exports are resolved lazily (PEP 562) so that low-level modules —
``repro.core.clustering`` imports the deadline checkpoint,
``repro.core.parallel`` imports the retry/deadline helpers — can import
``repro.jobs.<module>`` without dragging in :mod:`repro.jobs.runner` (which
itself imports the engine) and creating an import cycle.
"""

from __future__ import annotations

_EXPORTS = {
    "Deadline": "repro.jobs.watchdog",
    "checkpoint": "repro.jobs.watchdog",
    "current_deadline": "repro.jobs.watchdog",
    "deadline_scope": "repro.jobs.watchdog",
    "JobJournal": "repro.jobs.journal",
    "JournalReadResult": "repro.jobs.journal",
    "read_journal": "repro.jobs.journal",
    "backoff_delay": "repro.jobs.retry",
    "is_transient": "repro.jobs.retry",
    "DurableJob": "repro.jobs.runner",
    "JobStatus": "repro.jobs.runner",
    "job_fingerprint": "repro.jobs.runner",
    "job_status": "repro.jobs.runner",
    "render_status": "repro.jobs.runner",
    "EXIT_INTERRUPTED": "repro.jobs.signals",
    "GracefulInterrupt": "repro.jobs.signals",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
