"""Batch-worker watchdog: wedged forwards, dead workers, wedged shutdown."""

from __future__ import annotations

import math
import sys
import threading
import time

import pytest

from repro import obs
from repro.errors import BatchWorkerError, ForwardTimeoutError, ServeError
from repro.serve import AdmissionController, MicroBatcher, ModelRegistry
from repro.serve.health import DEGRADED, HealthMonitor, HealthPolicy
from repro.testing.faults import Fault
from tests.conftest import MICRO_CONFIG


@pytest.fixture
def registry(micro_archive):
    registry = ModelRegistry()
    registry.register("micro", micro_archive, config=MICRO_CONFIG)
    yield registry
    registry.close()


def make_batcher(registry, *, forward_timeout=None, health=None, fault=None,
                 timeout=10.0):
    admission = AdmissionController(max_pending=64, request_timeout=timeout)
    return MicroBatcher(registry, admission, batch_window=0.005, max_batch=8,
                        forward_timeout=forward_timeout, health=health,
                        fault=fault)


class TestForwardTimeout:
    def test_wedged_forward_failed_and_worker_replaced(self, registry):
        """A non-cooperative hang is fenced at forward_timeout: the batch
        fails as transient, a fresh worker serves the next request."""
        fault = Fault("wedge", "forward", "micro", seconds=10.0, times=1)
        batcher = make_batcher(registry, forward_timeout=0.2, fault=fault)
        try:
            with obs.scope() as trace:
                started = time.monotonic()
                pending = batcher.submit("micro", [1, 2, 3])
                with pytest.raises(ForwardTimeoutError, match="forward timeout"):
                    batcher.wait(pending)
                assert time.monotonic() - started < 5.0
                assert batcher.admission.depth == 0
                # The replacement worker serves immediately — no waiting for
                # the wedged one (still sleeping) to come back.
                result = batcher.wait(batcher.submit("micro", [1, 2, 3]))
                assert result["model"] == "micro"
            replaced = [e for e in trace.events
                        if e["name"] == "serve.worker_replaced"]
            assert [e["attrs"]["reason"] for e in replaced] == ["forward-timeout"]
        finally:
            batcher.close(timeout=15.0)

    def test_clock_injected_sweep(self, registry):
        """check_worker(now=...) makes the deadline testable without real
        waiting: a forward 'past' its deadline is aborted on the spot."""
        entered, release = threading.Event(), threading.Event()
        batcher = make_batcher(registry, forward_timeout=60.0)
        original_forward = batcher._forward

        def gated_forward(model, live):
            entered.set()
            release.wait(10.0)
            return original_forward(model, live)

        batcher._forward = gated_forward
        try:
            pending = batcher.submit("micro", [1, 2, 3])
            assert entered.wait(5.0), "the forward never started"
            assert batcher.check_worker(now=time.perf_counter() + 1.0) is None
            reason = batcher.check_worker(now=time.perf_counter() + 61.0)
            assert reason == "forward-timeout"
            with pytest.raises(ForwardTimeoutError):
                batcher.wait(pending)
            # The superseded worker un-wedges, sees its stale generation,
            # discards its late result, and exits without double-completing.
            batcher._forward = original_forward
            release.set()
            result = batcher.wait(batcher.submit("micro", [4, 5]))
            assert result["model"] == "micro"
        finally:
            release.set()
            batcher.close()

    def test_timeout_reports_transient_to_health(self, registry):
        health = HealthMonitor(registry, policy=HealthPolicy(breaker_threshold=5))
        fault = Fault("wedge", "forward", "micro", seconds=10.0, times=1)
        batcher = make_batcher(registry, forward_timeout=0.2, health=health,
                               fault=fault)
        try:
            pending = batcher.submit("micro", [1, 2, 3])
            with pytest.raises(ForwardTimeoutError):
                batcher.wait(pending)
            assert health.model("micro").state == DEGRADED
        finally:
            batcher.close(timeout=15.0)
            health.close()

    def test_disabled_without_forward_timeout(self, registry):
        """forward_timeout=None arms no deadline: a slow forward completes."""
        batcher = make_batcher(registry, forward_timeout=None,
                               fault=Fault("wedge", "forward", "micro", seconds=0.3, times=1))
        try:
            result = batcher.wait(batcher.submit("micro", [1, 2, 3]))
            assert result["model"] == "micro"
        finally:
            batcher.close()


class TestClaimRace:
    def test_complete_and_reap_race_claims_each_batch_once(self, registry):
        """8 clients on 2 CPUs, a sweep reaping every in-flight forward, and
        a tiny switch interval: the worker completing a batch races the
        watchdog claiming it, yet every request ends once, with its own row
        or the timeout, and every admission slot comes back exactly once."""
        batcher = make_batcher(registry, forward_timeout=60.0)
        batcher._watchdog_stop.set()  # only the racing sweep below reaps
        batcher._watchdog.join(timeout=5.0)
        batcher._forward = lambda model, live: [{"row": id(p)} for p in live]
        releases, original_release = [], batcher.admission.release
        batcher.admission.release = lambda: (releases.append(1), original_release())
        outcomes, stop = [], threading.Event()

        def client():
            for _ in range(25):
                pending = batcher.submit("micro", [1, 2])
                try:
                    outcomes.append(batcher.wait(pending)["row"] == id(pending))
                except ForwardTimeoutError:
                    outcomes.append(pending.result is None)

        def sweep():
            while not stop.is_set():
                batcher.check_worker(now=math.inf)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            clients = [threading.Thread(target=client) for _ in range(8)]
            sweeper = threading.Thread(target=sweep)
            for thread in [*clients, sweeper]:
                thread.start()
            for thread in clients:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        sweeper.join(timeout=10.0)
        assert not sweeper.is_alive()
        batcher.close()
        assert outcomes == [True] * 200
        assert len(releases) == 200 and batcher.admission.depth == 0


class TestDeadWorker:
    # The injected SystemExit escaping a worker thread is the point of the
    # test; silence pytest's unhandled-thread-exception report for it.
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_dead_worker_detected_and_replaced(self, registry):
        """A BaseException (which _run_batch's Exception guard cannot catch)
        kills the worker thread; the watchdog fails its batch and respawns."""
        batcher = make_batcher(registry)
        original_forward = batcher._forward

        def lethal_forward(model, live):
            raise SystemExit("injected worker death")

        batcher._forward = lethal_forward
        try:
            pending = batcher.submit("micro", [1, 2, 3])
            with pytest.raises(BatchWorkerError, match="died"):
                batcher.wait(pending)
            assert batcher.admission.depth == 0
            batcher._forward = original_forward
            result = batcher.wait(batcher.submit("micro", [1, 2, 3]))
            assert result["model"] == "micro"
        finally:
            batcher.close()


class TestCloseWithBrokenWorker:
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_close_fails_queue_when_worker_already_dead(self, registry):
        """Satellite: close() must not wait on a worker that cannot drain —
        queued requests are failed promptly with a ServeError."""
        batcher = make_batcher(registry, timeout=0.5)
        # Stop the watchdog first so nothing respawns the worker we kill
        # (the no-watchdog worst case close() must still handle).
        batcher._watchdog_stop.set()
        batcher._watchdog.join(timeout=5.0)

        def lethal_forward(model, live):
            raise SystemExit("injected worker death")

        batcher._forward = lethal_forward
        pending = batcher.submit("micro", [1, 2, 3])
        batcher._worker.join(5.0)
        assert not batcher._worker.is_alive()
        queued = batcher.submit("micro", [4, 5])  # nobody will ever drain this
        batcher.close(drain=True)
        with pytest.raises(ServeError, match="abandoned"):
            batcher.wait(queued)
        # The in-flight request died with the worker and (watchdog disabled)
        # resolves through the handler-side deadline.
        with pytest.raises(ServeError):
            batcher.wait(pending)
        assert batcher.admission.depth == 0

    def test_close_join_timeout_raises_and_fails_queue(self, registry):
        """A worker wedged past close(timeout=...) raises loudly instead of
        hanging shutdown, and still-queued requests get errors, not silence."""
        release = threading.Event()
        batcher = make_batcher(registry)
        original_forward = batcher._forward

        def wedged_forward(model, live):
            release.wait(30.0)
            return original_forward(model, live)

        batcher._forward = wedged_forward
        try:
            inflight = batcher.submit("micro", [1, 2, 3])
            assert inflight.started.wait(5.0)
            queued = batcher.submit("micro", [4, 5])
            with obs.scope() as trace:
                with pytest.raises(ServeError, match="failed to stop"):
                    batcher.close(drain=True, timeout=0.2)
            assert any(e["name"] == "serve.worker_join_timeouts"
                       for e in trace.events)
            with pytest.raises(ServeError, match="abandoned"):
                batcher.wait(queued)
        finally:
            release.set()
