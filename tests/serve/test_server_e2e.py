"""End-to-end serving: HTTP, fusion, hot-swap under traffic, signal drain.

The acceptance path of the serving layer: boot the server on a real
quantized archive, push concurrent traffic through the micro-batcher,
hot-swap the model mid-flight with zero dropped requests, and verify the
request path computes on the compressed representation
(``quantizer.dequantize_calls == 0``) with a ``serve.request`` span per
request.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

import pytest

from repro import obs
from repro.serve import ModelRegistry, QuantServer
from repro.serve.server import MAX_BODY_BYTES
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

    def test_healthz_reports_resident_bytes(self, server, micro_archive):
        """Each model's resident bytes: the prepared lookup kernels of its
        quantized tensors plus its float64 parameters, summed here from the
        archive alone."""
        import numpy as np

        from repro.core.serialization import load_quantized_model
        from repro.kernels import LookupKernel

        qmodel = load_quantized_model(micro_archive)
        expected = sum(
            LookupKernel(tensor).prepared_nbytes for tensor in qmodel.quantized.values()
        ) + sum(np.asarray(value).size * 8 for value in qmodel.fp32.values())
        status, health = http_json(f"{base_url(server)}/healthz")
        assert status == 200
        assert health["models"]["micro"]["resident_bytes"] == expected
        status, _ = http_json(f"{base_url(server)}/models/micro/reload", {})
        assert status == 200
        _, health = http_json(f"{base_url(server)}/healthz")
        assert health["models"]["micro"]["resident_bytes"] == expected

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


class TestBadRequestsAndFailedForwards:
    @pytest.mark.parametrize(
        "types", [[0, 7, 0], [0, -1, 0], [0.7, 0.2, 1.9]],
        ids=["oov", "negative", "float"],
    )
    def test_bad_token_type_ids_answered_400(self, server, types):
        """Bad type ids once went unchecked into the forward: an id outside
        the table dropped the connection, failed every request fused with
        it and tripped the breaker; a float was silently truncated.  Each is
        now a 400, while a concurrent valid request is served and the model
        stays healthy."""
        url = f"{base_url(server)}/models/micro/predict"
        valid = []
        concurrent = threading.Thread(target=lambda: valid.extend(
            http_json(url, {"input_ids": [1, 2, 3], "token_type_ids": [0, 1, 0]})
            for _ in range(6)))
        concurrent.start()
        statuses = [
            http_json(url, {"input_ids": [1, 2, 3], "token_type_ids": types})[0]
            for _ in range(6)
        ]
        concurrent.join(timeout=60)
        assert not concurrent.is_alive()
        assert statuses == [400] * 6
        assert [status for status, _ in valid] == [200] * 6
        status, health = http_json(f"{base_url(server)}/healthz")
        assert status == 200 and health["status"] == "ok"
        assert health["models"]["micro"]["health"]["state"] == "healthy"

    def test_untyped_forward_error_answered_500_on_a_kept_connection(
        self, server, monkeypatch
    ):
        """A forward that raises a plain RuntimeError once escaped the
        handler and dropped the connection with no response.  It is a 500
        with a JSON error, and the keep-alive connection serves the next
        request."""
        model = server.registry.get("micro").model
        calls = []

        def fails_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("boom")
            return type(model).forward(model, *args, **kwargs)

        monkeypatch.setattr(model, "forward", fails_once)
        body = json.dumps({"input_ids": [1, 2, 3]})
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            replies = []
            for _ in range(2):
                connection.request("POST", "/models/micro/predict", body=body,
                                   headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                replies.append((response.status, json.loads(response.read())))
        finally:
            connection.close()
        (status, failed), (next_status, served) = replies
        assert status == 500 and "RuntimeError: boom" in failed["error"]
        assert next_status == 200 and "pooled" in served


class TestTransport:
    def test_keep_alive_round_trips_skip_the_delayed_ack(self, server):
        """A response goes out as two writes (headers, then body).  With
        Nagle's algorithm on, the body of every keep-alive response waits
        for the client's delayed ACK, about 40 ms on Linux."""
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        times = []
        try:
            for _ in range(20):
                start = time.perf_counter()
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                times.append(time.perf_counter() - start)
                assert response.status == 200
        finally:
            connection.close()
        assert statistics.median(times) < 0.010, times

    @pytest.mark.parametrize(
        "length", ["-1", "ten", str(MAX_BODY_BYTES + 1), "9" * 5000],
        ids=["negative", "word", "over-cap", "5000-digits"],
    )
    def test_invalid_content_length_answered_and_closed(self, server, length):
        """A negative length once made the handler read until the client
        hung up.  The server answers 400 without reading, then closes the
        connection, since the body's end is unknown."""
        request = (
            "POST /models/micro/predict HTTP/1.1\r\n"
            f"Host: test\r\nContent-Length: {length}\r\n\r\n"
        ).encode("ascii")
        deadline = time.monotonic() + 1.0
        reply = b""
        with socket.create_connection((server.host, server.port), timeout=1.0) as sock:
            sock.sendall(request)
            while chunk := sock.recv(4096):
                reply += chunk
                sock.settimeout(max(deadline - time.monotonic(), 0.001))
        assert reply.startswith(b"HTTP/1.1 400"), reply
        assert b"\r\nConnection: close\r\n" in reply


class TestAdmission:
    def test_overload_rejected_with_retry_after(self, micro_archive):
        """With the worker held in a forward, a burst overflows the 2-deep
        queue bound: every request past it is answered 429 with Retry-After
        at once, and the two admitted ones are served when the worker goes
        on.  (A timed burst relied on requests arriving faster than a
        forward completes, which a fast forward loses now and then.)"""
        registry = ModelRegistry()
        registry.register("micro", micro_archive, config=MICRO_CONFIG)
        count = 10
        server = QuantServer(
            registry, port=0, batch_window=0.05, max_batch=count,
            max_pending=2, request_timeout=30.0,
        )
        entered, release = threading.Event(), threading.Event()
        forward = server.batcher._forward

        def held_forward(model, live):
            entered.set()
            release.wait(30.0)
            return forward(model, live)

        server.batcher._forward = held_forward
        server.serve_in_background()
        try:
            url = f"{base_url(server)}/models/micro/predict"
            results = [None] * count
            answered = threading.Semaphore(0)

            def call(index):
                results[index] = http_json(url, {"input_ids": [1, 2, 3]})
                answered.release()

            threads = [
                threading.Thread(target=call, args=(i,)) for i in range(count)
            ]
            threads[0].start()
            assert entered.wait(30.0), "the first request never reached a forward"
            for thread in threads[1:]:
                thread.start()
            # One request is in the held forward and one is queued; the
            # other eight are refused without waiting for the worker.
            for _ in range(count - 2):
                assert answered.acquire(timeout=30.0)
            release.set()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            statuses = sorted(status for status, _ in results)
            assert statuses == [200] * 2 + [429] * (count - 2), statuses
            rejected = next(body for status, body in results if status == 429)
            assert rejected["retry_after"] >= 1
        finally:
            release.set()
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
