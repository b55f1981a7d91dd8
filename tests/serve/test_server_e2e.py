"""End-to-end serving: HTTP, fusion, hot-swap under traffic, signal drain.

The acceptance path of the serving layer: boot the server on a real
quantized archive, push concurrent traffic through the micro-batcher,
hot-swap the model mid-flight with zero dropped requests, and verify the
request path computes on the compressed representation
(``quantizer.dequantize_calls == 0``) with a ``serve.request`` span per
request.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import obs
from repro.serve import ModelRegistry, QuantServer
from tests.conftest import MICRO_CONFIG
from tests.serve.conftest import http_json


@pytest.fixture
def server(micro_archive):
    registry = ModelRegistry()
    registry.register("micro", micro_archive, config=MICRO_CONFIG)
    quant_server = QuantServer(
        registry, port=0, batch_window=0.01, max_batch=8,
        max_pending=64, request_timeout=30.0,
    )
    quant_server.serve_in_background()
    try:
        yield quant_server
    finally:
        quant_server.shutdown()


def base_url(server: QuantServer) -> str:
    return f"http://{server.host}:{server.port}"


class TestRequestPath:
    def test_concurrent_traffic_on_compressed_representation(self, server):
        """32+ concurrent requests: all succeed, all are batched, none
        dequantize, and each carries a serve.request span."""
        url = f"{base_url(server)}/models/micro/predict"
        count = 32
        results = [None] * count
        barrier = threading.Barrier(count)

        def call(index):
            barrier.wait()
            sequence = [1 + index % 7, 2, 3, 4 + index % 3]
            results[index] = http_json(url, {"input_ids": sequence})

        with obs.scope() as trace:
            threads = [
                threading.Thread(target=call, args=(i,)) for i in range(count)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        statuses = [status for status, _ in results]
        assert statuses == [200] * count
        # The request path never decodes the weights: computing happened on
        # the compressed representation via lookup kernels.
        dequantizes = [event for event in trace.events
                       if event["name"] == "quantizer.dequantize_calls"]
        assert dequantizes == []
        lookup_calls = sum(
            event["value"] for event in trace.events
            if event["name"] == "kernels.lookup_matmul_calls"
        )
        assert lookup_calls > 0
        # Every request emitted a serve.request span...
        request_spans = [
            event for event in trace.events
            if event["event"] == "span" and event["name"] == "serve.request"
        ]
        assert len(request_spans) == count
        assert all(event["attrs"]["status"] == 200 for event in request_spans)
        # ...with a nested queue-wait span.
        queue_waits = [
            event for event in trace.events
            if event["event"] == "span" and event["name"] == "serve.queue_wait"
        ]
        assert len(queue_waits) == count
        assert all(event["parent"] == "serve.request" for event in queue_waits)
        # The micro-batcher actually fused concurrent requests.
        batch_sizes = [
            event["attrs"]["batch_size"] for event in trace.events
            if event["event"] == "span" and event["name"] == "serve.batch"
        ]
        assert sum(batch_sizes) == count
        assert max(batch_sizes) > 1
        assert all(body["batch_size"] >= 1 for _, body in results)

    def test_hot_swap_under_traffic_drops_nothing(self, server):
        """Reload the model while requests are in flight: every request
        gets a 200 and both versions are observed."""
        url = f"{base_url(server)}/models/micro/predict"
        reload_url = f"{base_url(server)}/models/micro/reload"
        stop = threading.Event()
        results: list[tuple[int, dict]] = []
        results_lock = threading.Lock()

        def hammer(index):
            while not stop.is_set():
                outcome = http_json(url, {"input_ids": [1 + index % 5, 2, 3]})
                with results_lock:
                    results.append(outcome)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        try:
            time.sleep(0.1)
            for _ in range(3):
                status, body = http_json(reload_url, {})
                assert status == 200, body
                time.sleep(0.1)
        finally:
            stop.set()
            for thread in threads:
                thread.join()

        assert len(results) >= 16
        assert all(status == 200 for status, _ in results), [
            (status, body) for status, body in results if status != 200
        ]
        versions = {body["version"] for _, body in results}
        assert len(versions) >= 2, f"swap never observed: {versions}"
        status, health = http_json(f"{base_url(server)}/healthz")
        assert status == 200
        assert health["models"]["micro"]["version"] == 4

    def test_metrics_endpoint_reflects_traffic(self, server):
        url = f"{base_url(server)}/models/micro/predict"
        for _ in range(3):
            status, _ = http_json(url, {"input_ids": [1, 2, 3]})
            assert status == 200
        status, metrics = http_json(f"{base_url(server)}/metrics")
        assert status == 200
        assert metrics["counters"]["serve.requests"] >= 3
        assert metrics["spans"]["serve.request"]["count"] >= 3
        assert metrics["spans"]["serve.batch"]["count"] >= 1

    def test_error_statuses(self, server):
        base = base_url(server)
        assert http_json(f"{base}/models/ghost/predict",
                         {"input_ids": [1]})[0] == 404
        assert http_json(f"{base}/models/ghost/reload", {})[0] == 404
        assert http_json(f"{base}/models/micro/predict", {})[0] == 400
        assert http_json(f"{base}/models/micro/predict",
                         {"input_ids": "nope"})[0] == 400
        assert http_json(f"{base}/nope")[0] == 404


class TestAdmission:
    def test_overload_rejected_with_retry_after(self, micro_archive):
        """With a tiny queue bound and a slow batch cadence, a burst must
        produce at least one 429 carrying Retry-After."""
        registry = ModelRegistry()
        registry.register("micro", micro_archive, config=MICRO_CONFIG)
        count = 10
        # max_batch above the burst size keeps each batch open for the whole
        # 50 ms window, so the admitted requests stay pending while the rest
        # of the burst arrives, however fast the forward itself is.
        server = QuantServer(
            registry, port=0, batch_window=0.05, max_batch=count,
            max_pending=2, request_timeout=30.0,
        )
        server.serve_in_background()
        try:
            url = f"{base_url(server)}/models/micro/predict"
            results = [None] * count
            barrier = threading.Barrier(count)

            def call(index):
                barrier.wait()
                results[index] = http_json(url, {"input_ids": [1, 2, 3]})

            threads = [
                threading.Thread(target=call, args=(i,)) for i in range(count)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            statuses = [status for status, _ in results]
            assert 429 in statuses, statuses
            assert all(status in (200, 429) for status in statuses)
            rejected = next(body for status, body in results if status == 429)
            assert rejected["retry_after"] >= 1
        finally:
            server.shutdown()


class TestCli:
    def test_serve_boot_traffic_sigterm_drain(self, micro_archive, tmp_path):
        """The full CLI contract: boot ``repro serve``, answer traffic,
        drain on SIGTERM with exit 75, and leave a schema-valid trace."""
        # The micro config is not a zoo preset, so serve a preset archive.
        build = subprocess.run(
            [sys.executable, "-m", "repro", "quantize",
             "--config", "tiny-distilbert", "--embedding-bits", "none",
             "--out", str(tmp_path / "model.npz")],
            env=self._env(), capture_output=True, text=True, timeout=300,
        )
        assert build.returncode == 0, build.stderr
        trace_path = tmp_path / "serve.jsonl"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--model", f"tiny={tmp_path / 'model.npz'}",
             "--port", "0", "--trace", str(trace_path)],
            env=self._env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        try:
            port = None
            for _ in range(100):
                line = process.stdout.readline()
                if "serving" in line:
                    port = int(line.split("http://")[1].split()[0].rsplit(":", 1)[1])
                    break
            assert port is not None, "server never announced its port"
            status, body = http_json(
                f"http://127.0.0.1:{port}/models/tiny/predict",
                {"input_ids": [1, 2, 3, 4]},
            )
            assert status == 200
            assert body["model"] == "tiny"
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == 75  # EXIT_INTERRUPTED
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
        # The trace the server left behind validates against the schema.
        check = subprocess.run(
            [sys.executable, "-m", "repro", "profile", "--check",
             str(trace_path)],
            env=self._env(), capture_output=True, text=True, timeout=120,
        )
        assert check.returncode == 0, check.stdout + check.stderr
        names = {
            json.loads(line)["name"]
            for line in trace_path.read_text().splitlines()
        }
        assert {"serve.request", "serve.queue_wait", "serve.batch",
                "serve.model_load"} <= names

    @staticmethod
    def _env() -> dict:
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        return env
