"""HTTP front: JSON request path over the registry and micro-batcher.

Stdlib-only (``http.server``): a :class:`~http.server.ThreadingHTTPServer`
where each connection's handler thread submits into the shared
:class:`~repro.serve.batcher.MicroBatcher` and blocks for its result, so
concurrency is bounded by admission control rather than by thread count.

Routes::

    GET  /healthz                  # 200 once all models are live
    GET  /metrics                  # aggregated MetricsSnapshot as JSON
    POST /models/<name>/predict    # {"input_ids": [..]} -> pooled vector
    POST /models/<name>/reload     # hot-swap <name> from its archive path

Status mapping (the admission contract): unknown model → 404, malformed
body → 400, queue full → 429 with ``Retry-After``, request deadline → 504,
model load failure on reload → 500 *with the old model still serving*.
Quarantined models (see :mod:`repro.serve.health`) answer 503 with
``Retry-After`` at admission; a batch failed by the worker watchdog
(wedged or dead worker) also maps to 503 + ``Retry-After: 1`` because a
replacement worker is already running.

Every request runs inside a ``serve.request`` span (model, route, status)
with a nested ``serve.queue_wait`` span; batches emit ``serve.batch`` from
the worker (see :mod:`repro.serve.batcher`).  :func:`run_server` is the
``repro serve`` entrypoint: it wires :class:`~repro.jobs.signals.
GracefulInterrupt` so the first SIGINT/SIGTERM drains in-flight requests
and exits :data:`~repro.jobs.signals.EXIT_INTERRUPTED` (75), the same
contract as durable quantization jobs.
"""

from __future__ import annotations

import functools
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro import obs
from repro.errors import (
    BatchWorkerError,
    ConfigError,
    ModelNotFoundError,
    ModelQuarantinedError,
    QueueFullError,
    RequestTimeoutError,
    ReproError,
    SerializationError,
    ServeError,
)
from repro.obs import recorder as obs_recorder
from repro.serve.admission import AdmissionController
from repro.serve.batcher import MicroBatcher
from repro.serve.health import HEALTHY, HealthMonitor, HealthPolicy
from repro.serve.registry import ModelRegistry

#: Request bodies above this are rejected outright (413) before parsing.
MAX_BODY_BYTES = 1 << 20


class _HttpListener(ThreadingHTTPServer):
    daemon_threads = True
    # The stdlib default backlog (5) resets connections under the exact
    # burst pattern micro-batching exists for; admission control — not the
    # kernel's accept queue — is where overload is supposed to be decided.
    request_queue_size = 128


def _snapshot_payload(snapshot) -> dict:
    return {
        "events": snapshot.events,
        "counters": dict(sorted(snapshot.counters.items())),
        "gauges": dict(sorted(snapshot.gauges.items())),
        "histograms": {
            name: {"count": stats.count, "mean": stats.mean,
                   "min": stats.minimum, "max": stats.maximum}
            for name, stats in sorted(snapshot.histograms.items())
        },
        "spans": {
            name: {"count": stats.count,
                   "total_ms": stats.total_seconds * 1000.0,
                   "mean_ms": stats.mean_seconds * 1000.0}
            for name, stats in sorted(snapshot.spans.items())
        },
    }


class QuantServer:
    """Bundles registry + admission + batcher behind one HTTP listener."""

    def __init__(
        self,
        registry: ModelRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_window: float = 0.005,
        max_batch: int = 8,
        max_pending: int = 64,
        request_timeout: float = 10.0,
        forward_timeout: float | None = 30.0,
        health_policy: HealthPolicy | None = None,
        fault=None,
    ):
        self.registry = registry
        if fault is not None and registry.fault is None:
            registry.fault = fault  # slow-load reaches reloads too
        self.admission = AdmissionController(
            max_pending=max_pending, request_timeout=request_timeout
        )
        self.health = HealthMonitor(registry, policy=health_policy)
        self.batcher = MicroBatcher(
            registry, self.admission,
            batch_window=batch_window, max_batch=max_batch,
            forward_timeout=forward_timeout, health=self.health, fault=fault,
        )
        # /metrics reads this; bounded memory for an unbounded request count.
        self.metrics_sink = obs.install(obs.SnapshotSink())
        handler = _make_handler(self)
        self._httpd = _HttpListener((host, port), handler)
        self.host, self.port = self._httpd.server_address[:2]

    # ------------------------------------------------------------- lifecycle
    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown` is called."""
        self._httpd.serve_forever(poll_interval=0.1)

    def serve_in_background(self) -> threading.Thread:
        """Run the accept loop on a daemon thread (tests, embedding)."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-serve-http", daemon=True
        )
        thread.start()
        return thread

    def shutdown(self) -> None:
        """Stop accepting, drain queued requests, release every archive."""
        self._httpd.shutdown()
        self._httpd.server_close()
        try:
            self.batcher.close(drain=True)
        finally:
            # A wedged worker makes close() raise; archives and background
            # reloaders must still be released on the way out.
            self.health.close()
            self.registry.close()
            obs.uninstall(self.metrics_sink)

    def __enter__(self) -> "QuantServer":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()


def _make_handler(server: QuantServer):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve/1"
        # TCP_NODELAY: a response goes out in two writes (headers, then
        # body), and with Nagle's algorithm on, a keep-alive connection's
        # body waits for the client's delayed ACK (~40 ms on Linux).
        disable_nagle_algorithm = True

        # ------------------------------------------------------------ plumbing
        def log_message(self, format, *args):  # noqa: A002 — stdlib signature
            pass  # request logging goes through obs spans, not stderr

        def _respond(self, status: int, payload: dict,
                     headers: dict | None = None) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for key, value in (headers or {}).items():
                self.send_header(key, value)
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            try:
                self.wfile.write(body)
            except (BrokenPipeError, ConnectionResetError):
                pass  # client went away; nothing to salvage

        def _read_body(self) -> dict:
            declared = self.headers.get("Content-Length", "0")
            try:
                length = int(declared) if declared.isascii() and declared.isdigit() else -1
            except ValueError:  # more digits than int() converts: far over the cap
                length = MAX_BODY_BYTES + 1
            if not 0 <= length <= MAX_BODY_BYTES:
                # The body stays unread, so the next request on this
                # connection would start somewhere inside it.
                self.close_connection = True
                raise ValueError(
                    f"invalid Content-Length {declared!r}" if length < 0 else
                    f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"
                )
            raw = self.rfile.read(length) if length else b""
            if not raw:
                return {}
            payload = json.loads(raw.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("request body must be a JSON object")
            return payload

        # -------------------------------------------------------------- routes
        def do_GET(self) -> None:  # noqa: N802 — stdlib casing
            if self.path == "/healthz":
                models = server.registry.describe()
                for name in models:
                    models[name]["health"] = server.health.model(name).describe()
                degraded = any(
                    entry["health"]["state"] != HEALTHY
                    for entry in models.values()
                )
                self._respond(200, {
                    "status": "degraded" if degraded else "ok",
                    "models": models,
                    "queue_depth": server.admission.depth,
                })
            elif self.path == "/metrics":
                self._respond(
                    200, _snapshot_payload(server.metrics_sink.snapshot())
                )
            else:
                self._respond(404, {"error": f"no route {self.path!r}"})

        def do_POST(self) -> None:  # noqa: N802 — stdlib casing
            parts = self.path.strip("/").split("/")
            if len(parts) == 3 and parts[0] == "models" and parts[2] == "predict":
                self._predict(parts[1])
            elif len(parts) == 3 and parts[0] == "models" and parts[2] == "reload":
                self._reload(parts[1])
            else:
                self._respond(404, {"error": f"no route {self.path!r}"})

        def _predict(self, model: str) -> None:
            with obs_recorder.span(
                "serve.request", model=model, route="predict"
            ) as sp:
                status, payload, headers = self._predict_inner(model)
                sp.set(status=status)
            obs_recorder.counter("serve.requests", model=model, status=status)
            self._respond(status, payload, headers)

        def _predict_inner(self, model: str) -> tuple[int, dict, dict | None]:
            try:
                body = self._read_body()
            except (ValueError, json.JSONDecodeError) as exc:
                return 400, {"error": f"bad request body: {exc}"}, None
            if "input_ids" not in body:
                return 400, {"error": "missing required field 'input_ids'"}, None
            try:
                pending = server.batcher.submit(
                    model, body["input_ids"], body.get("token_type_ids")
                )
            except ModelNotFoundError as exc:
                return 404, {"error": str(exc)}, None
            except ModelQuarantinedError as exc:
                return (503, {"error": str(exc), "retry_after": exc.retry_after,
                              "state": exc.state},
                        {"Retry-After": str(int(exc.retry_after))})
            except QueueFullError as exc:
                return (429, {"error": str(exc), "retry_after": exc.retry_after},
                        {"Retry-After": str(int(exc.retry_after))})
            except (ValueError, TypeError) as exc:
                return 400, {"error": str(exc)}, None
            except ServeError as exc:
                return 503, {"error": str(exc)}, None
            try:
                return 200, server.batcher.wait(pending), None
            except RequestTimeoutError as exc:
                return 504, {"error": str(exc)}, None
            except BatchWorkerError as exc:
                # The watchdog failed this batch (wedged or dead worker) and
                # already started a replacement — safe to retry immediately.
                return (503, {"error": str(exc), "retry_after": 1.0},
                        {"Retry-After": "1"})
            except ReproError as exc:
                return 500, {"error": str(exc)}, None

        def _reload(self, model: str) -> None:
            with obs_recorder.span(
                "serve.request", model=model, route="reload"
            ) as sp:
                try:
                    entry = server.registry.reload(model)
                    server.health.note_manual_reload(model)
                    status, payload = 200, {
                        "status": "reloaded",
                        "model": model,
                        "version": entry.version,
                    }
                except ModelNotFoundError as exc:
                    status, payload = 404, {"error": str(exc)}
                except (SerializationError, ConfigError, OSError,
                        ValueError, ReproError) as exc:
                    # Load or build failure (torn archive, drifted weights,
                    # shape mismatch): the old entry was never swapped out,
                    # so the model keeps serving its previous weights.
                    status, payload = 500, {
                        "error": f"reload failed, previous version still "
                                 f"serving: {exc}"
                    }
                sp.set(status=status)
            obs_recorder.counter("serve.requests", model=model, status=status)
            self._respond(status, payload)

    return Handler


def run_server(
    models: dict[str, tuple[str, str | None]],
    host: str = "127.0.0.1",
    port: int = 8080,
    batch_window: float = 0.005,
    max_batch: int = 8,
    max_pending: int = 64,
    request_timeout: float = 10.0,
    verify: str = "lazy",
    forward_timeout: float | None = 30.0,
    breaker_window: float = 30.0,
    breaker_threshold: int = 5,
    quarantine_reloads: int = 5,
    announce=functools.partial(print, flush=True),  # unbuffered: supervisors
    # and the CI harness watch stdout for the "serving ..." line.
) -> int:
    """Load ``models`` ({name: (path, config-or-None)}), serve until signaled.

    Returns the process exit code: 75 (:data:`EXIT_INTERRUPTED`) after a
    graceful drain, matching the durable-jobs contract.  Must run on the
    main thread (signal handlers).
    """
    from repro.jobs.signals import EXIT_INTERRUPTED, GracefulInterrupt
    from repro.testing.faults import injector_from_env

    fault = injector_from_env()
    policy = HealthPolicy(
        breaker_window=breaker_window,
        breaker_threshold=breaker_threshold,
        quarantine_reloads=quarantine_reloads,
    )
    registry = ModelRegistry(verify=verify, fault=fault)
    for name, (path, config) in models.items():
        entry = registry.register(name, path, config=config)
        announce(
            f"model {name!r}: {entry.path} (config {entry.config_name}, "
            f"{len(entry.qmodel.fc_names)} FC layers, version {entry.version})"
        )
    server = QuantServer(
        registry, host=host, port=port,
        batch_window=batch_window, max_batch=max_batch,
        max_pending=max_pending, request_timeout=request_timeout,
        forward_timeout=forward_timeout, health_policy=policy, fault=fault,
    )
    announce(
        f"serving {len(models)} model(s) on http://{server.host}:{server.port} "
        f"(batch window {batch_window * 1000:g}ms, max batch {max_batch}, "
        f"queue bound {max_pending})"
    )
    with GracefulInterrupt() as interrupt:
        stopper = threading.Thread(
            target=lambda: (interrupt.event.wait(), server._httpd.shutdown()),
            name="repro-serve-stopper", daemon=True,
        )
        stopper.start()
        try:
            server.serve_forever()
        finally:
            server.shutdown()
    if interrupt.triggered:
        announce("drained in-flight requests; archives closed")
        return EXIT_INTERRUPTED
    return 0
