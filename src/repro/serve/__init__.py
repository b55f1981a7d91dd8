"""Serving layer: compressed-representation inference behind HTTP.

The GOBO argument is about *serving*: latency and energy at inference time,
on weights that never leave their compressed form.  This package is the
system-level realization over the repo's software kernels —

* :mod:`repro.serve.registry` — named, hot-swappable models loaded lazily
  from checksummed archives (``verify="lazy"``) with lookup-kernel Linears
  attached;
* :mod:`repro.serve.batcher` — the micro-batching queue that amortizes one
  kernel forward across queued requests (its policy a clock-injected core
  with no threads), plus the worker watchdog that fails wedged batches and
  replaces dead workers;
* :mod:`repro.serve.admission` — bounded queue depth (429 + Retry-After)
  and per-request deadlines (504);
* :mod:`repro.serve.health` — per-model health state machine (circuit
  breaker, integrity quarantine, automatic reload, half-open probes);
* :mod:`repro.serve.server` — the stdlib ``ThreadingHTTPServer`` JSON front
  and the ``repro serve`` entrypoint with graceful drain (exit 75).

See DESIGN.md §5f (serving) and §5i (self-healing).
"""

from repro.serve.admission import AdmissionController
from repro.serve.batcher import MicroBatcher, PendingRequest
from repro.serve.health import (
    DEGRADED,
    HEALTHY,
    PROBING,
    QUARANTINED,
    HealthMonitor,
    HealthPolicy,
    ModelHealth,
    classify_failure,
)
from repro.serve.registry import ModelEntry, ModelRegistry
from repro.serve.server import QuantServer, run_server

__all__ = [
    "AdmissionController",
    "DEGRADED",
    "HEALTHY",
    "HealthMonitor",
    "HealthPolicy",
    "MicroBatcher",
    "ModelEntry",
    "ModelHealth",
    "ModelRegistry",
    "PROBING",
    "PendingRequest",
    "QUARANTINED",
    "QuantServer",
    "classify_failure",
    "run_server",
]
