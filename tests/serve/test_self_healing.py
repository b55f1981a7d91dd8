"""End-to-end self-healing: corrupt archive → quarantine → auto-reload.

The full acceptance loop over real HTTP (DESIGN.md §5i):

1. a member CRC failure surfaces mid-request (the ``corrupt-member-at-serve``
   injector raises the exact :class:`ChecksumMismatchError` a lazy read
   produces) while the archive on disk really is corrupted
   (:func:`corrupt_bytes` on a quantized member's data);
2. the first request 500s; every subsequent request answers 503 +
   ``Retry-After`` — never a second 500;
3. the background reloader hammers ``registry.reload`` against the corrupt
   file and keeps failing on the *real* CRC check;
4. the file is repaired on disk; the next automatic reload succeeds, the
   model probes back to health, and responses carry the new version with
   pooled outputs bit-identical to the pre-corruption baseline.
"""

from __future__ import annotations

import json
import shutil
import struct
import threading
import time
import urllib.error
import urllib.request
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.serve import ModelRegistry, QuantServer
from repro.serve.health import HealthPolicy, QUARANTINED
from repro.testing.faults import Fault, corrupt_bytes
from tests.conftest import MICRO_CONFIG
from tests.serve.conftest import http_json

#: Fast-recovery policy: real jittered backoff, just compressed in time.
FAST_POLICY = HealthPolicy(
    breaker_window=30.0, breaker_threshold=3, cooldown=0.2,
    probe_successes=2, probe_timeout=10.0, quarantine_reloads=200,
    reload_backoff_base=0.02, reload_backoff_cap=0.05,
)

SEQUENCE = [1, 2, 3, 4, 5]


def http_json_with_headers(url: str, payload: dict | None = None,
                           timeout: float = 30.0):
    """(status, parsed-body, headers) — conftest's http_json plus headers."""
    if payload is None:
        request = urllib.request.Request(url)
    else:
        request = urllib.request.Request(
            url, data=json.dumps(payload).encode("utf-8"), method="POST",
            headers={"Content-Type": "application/json"},
        )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


def codes_member_offset(path: Path) -> int:
    """Data offset of the first quantized layer's packed-codes zip member."""
    with zipfile.ZipFile(path) as zf:
        member = sorted(
            name for name in zf.namelist()
            if name.startswith("gobo::") and name.endswith("::codes.npy")
        )[0]
        info = zf.getinfo(member)
    raw = path.read_bytes()
    name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
    return info.header_offset + 30 + name_len + extra_len + info.file_size - 1


@pytest.fixture
def swap_archive(micro_archive, tmp_path):
    """A private copy of the micro archive this test may corrupt and repair."""
    path = tmp_path / "swap.npz"
    shutil.copyfile(micro_archive, path)
    return path


def wait_until(predicate, timeout: float = 15.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.02)


class TestCorruptArchiveSelfHealing:
    def test_quarantine_reload_recovery_cycle(self, swap_archive, micro_archive):
        corrupt_fault = Fault("crc", "forward", "micro", times=1)
        armed = threading.Event()

        def fault(hook: str, keys: tuple, value=None):
            return corrupt_fault(hook, keys, value) if armed.is_set() else value

        registry = ModelRegistry(verify="lazy")
        registry.register("micro", swap_archive, config=MICRO_CONFIG)
        with QuantServer(registry, port=0, batch_window=0.0,
                         request_timeout=5.0, forward_timeout=10.0,
                         health_policy=FAST_POLICY, fault=fault) as server:
            server.serve_in_background()
            base = f"http://{server.host}:{server.port}"
            predict = f"{base}/models/micro/predict"
            payload = {"input_ids": SEQUENCE}

            # Healthy baseline (fault disarmed): the bit-identity reference.
            status, baseline = http_json(predict, payload)
            assert status == 200
            assert baseline["version"] == 1

            # Rot a real byte of a quantized member's codes on disk, and arm
            # the injector that surfaces the CRC failure at serve time.
            corrupt_bytes(swap_archive, codes_member_offset(swap_archive))
            armed.set()

            # First request: the integrity error reaches the client once.
            status, body = http_json(predict, payload)
            assert status == 500
            assert "CRC" in body["error"] or "mismatch" in body["error"]

            # From now on: 503 + Retry-After at admission, never another 500.
            status, body, headers = http_json_with_headers(predict, payload)
            assert status == 503
            assert headers["Retry-After"] is not None
            assert int(headers["Retry-After"]) >= 1
            assert body["state"] == QUARANTINED
            assert "reload" in body["error"]

            status, health = http_json(f"{base}/healthz")
            assert status == 200
            assert health["status"] == "degraded"
            micro = health["models"]["micro"]["health"]
            assert micro["state"] == QUARANTINED
            assert micro["quarantine_reason"] == "integrity"

            # The reloader is live but the file is still bad: reload attempts
            # fail on the real checksum and the model stays out of service.
            wait_until(lambda: server.health.model("micro")
                       .describe()["reload_attempts"] >= 1)
            status, _, _ = http_json_with_headers(predict, payload)
            assert status == 503

            # Repair the archive on disk; the next automatic reload succeeds
            # and probe traffic walks the model back to service.
            shutil.copyfile(micro_archive, swap_archive)
            observed: set[int] = set()

            def recovered() -> bool:
                status, body = http_json(predict, payload)
                observed.add(status)
                return status == 200 and body["version"] == 2

            wait_until(recovered)
            assert observed <= {503, 200}, "a 500 leaked after quarantine"

            # Recovery is exact: same bytes in, bit-identical pooled out,
            # served from the reloaded (version-bumped) entry.
            status, recovered_body = http_json(predict, payload)
            assert status == 200
            assert recovered_body["version"] == 2
            assert recovered_body["pooled"] == baseline["pooled"]

            wait_until(lambda: http_json(f"{base}/healthz")[1]["status"] == "ok")
            status, health = http_json(f"{base}/healthz")
            assert health["models"]["micro"]["health"]["state"] == "healthy"
            assert health["models"]["micro"]["health"]["quarantines"] == 1


class TestHangIsolation:
    def test_watchdog_fences_hang_other_models_keep_serving(self, micro_archive):
        """A wedged forward on one model is fenced at forward_timeout and
        must not take the other model down with it."""
        registry = ModelRegistry(verify="lazy")
        registry.register("alpha", micro_archive, config=MICRO_CONFIG)
        registry.register("beta", micro_archive, config=MICRO_CONFIG)
        fault = Fault("wedge", "forward", "alpha", seconds=8.0, times=1)
        with QuantServer(registry, port=0, batch_window=0.0,
                         request_timeout=5.0, forward_timeout=0.3,
                         health_policy=FAST_POLICY, fault=fault) as server:
            server.serve_in_background()
            base = f"http://{server.host}:{server.port}"
            payload = {"input_ids": SEQUENCE}

            started = time.monotonic()
            status, body, headers = http_json_with_headers(
                f"{base}/models/alpha/predict", payload)
            # Fenced within ~forward_timeout, not after the full 8s hang.
            assert time.monotonic() - started < 4.0
            assert status == 503
            assert headers["Retry-After"] is not None
            assert "forward timeout" in body["error"]

            # The replacement worker serves both models immediately.
            status, body = http_json(f"{base}/models/beta/predict", payload)
            assert status == 200 and body["model"] == "beta"
            status, body = http_json(f"{base}/models/alpha/predict", payload)
            assert status == 200 and body["model"] == "alpha"

            status, health = http_json(f"{base}/healthz")
            assert health["models"]["beta"]["health"]["state"] == "healthy"
