"""MicroBatcher: fusion, fan-out correctness, deadlines, shutdown.

The batching policy itself is tested on a hand-advanced clock in
``test_batcher_core.py``; these tests run the threads.  Fusion is made
certain, not timed: a gated forward holds the worker while the requests
to fuse are queued behind it.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.errors import (
    ModelNotFoundError,
    QueueFullError,
    RequestTimeoutError,
    ServeError,
)
from repro.serve import AdmissionController, MicroBatcher, ModelRegistry
from repro.serve.health import HEALTHY, HealthMonitor, HealthPolicy
from tests.conftest import MICRO_CONFIG


@pytest.fixture
def registry(micro_archive):
    registry = ModelRegistry()
    registry.register("micro", micro_archive, config=MICRO_CONFIG)
    yield registry
    registry.close()


def make_batcher(registry, *, window=0.02, max_batch=8, max_pending=64,
                 timeout=10.0):
    admission = AdmissionController(max_pending=max_pending,
                                    request_timeout=timeout)
    return MicroBatcher(registry, admission,
                        batch_window=window, max_batch=max_batch)


def submit_behind_gate(batcher, sequences):
    """Hold the worker in a forward of one lone request, queue
    ``sequences`` behind it, then let it go; returns their results."""
    entered, release = threading.Event(), threading.Event()
    original_forward = batcher._forward

    def gated_forward(model, live):
        entered.set()
        release.wait(10.0)
        return original_forward(model, live)

    batcher._forward = gated_forward
    try:
        blocker = batcher.submit("micro", [1, 2])
        assert entered.wait(5.0), "the gated forward never started"
        pending = [batcher.submit("micro", sequence) for sequence in sequences]
    finally:
        release.set()
    assert batcher.wait(blocker)["batch_size"] == 1  # a lone request goes at once
    return [batcher.wait(request) for request in pending]


class TestFusion:
    def test_concurrent_requests_share_batches(self, registry):
        batcher = make_batcher(registry, window=0.05, max_batch=16)
        try:
            results = submit_behind_gate(
                batcher, [[1 + index % 5, 2, 3] for index in range(12)])
            assert [result["batch_size"] for result in results] == [12] * 12
            assert all(result["model"] == "micro" for result in results)
        finally:
            batcher.close()

    def test_batched_result_matches_solo_forward(self, registry):
        """Fusion must not change the numbers beyond summation order: a
        fused row agrees with the request run alone to 1e-12, not bit for
        bit, because its kernels and BLAS calls sum over other row counts
        (the batch packs the real tokens of every request)."""
        batcher = make_batcher(registry, window=0.05, max_batch=8)
        try:
            sequences = [[1, 2, 3, 4, 5, 6, 7], [8, 9], [10, 11, 12]]
            results = submit_behind_gate(batcher, sequences)
            assert [result["batch_size"] for result in results] == [3, 3, 3]
            entry = registry.get("micro")
            for sequence, result in zip(sequences, results):
                _, pooled = entry.model(np.array([sequence]))
                np.testing.assert_allclose(
                    np.array(result["pooled"]), pooled.data[0],
                    rtol=1e-12, atol=1e-12,
                )
        finally:
            batcher.close()

    def test_max_batch_caps_fusion(self, registry):
        batcher = make_batcher(registry, window=0.2, max_batch=2)
        try:
            results = submit_behind_gate(batcher, [[1, 2, 3]] * 6)
            # Full batches go without waiting out the 200 ms window.
            assert [result["batch_size"] for result in results] == [2] * 6
        finally:
            batcher.close()


class TestValidation:
    def test_unknown_model_rejected_before_admission(self, registry):
        batcher = make_batcher(registry, max_pending=1)
        try:
            with pytest.raises(ModelNotFoundError):
                batcher.submit("ghost", [1, 2])
            assert batcher.admission.depth == 0
        finally:
            batcher.close()

    @pytest.mark.parametrize(
        "bad",
        [[], [[1, 2]], ["a"], [1.5], [999999], [-1]],
        ids=["empty", "2d", "str", "float", "oov", "negative"],
    )
    def test_malformed_input_ids(self, registry, bad):
        batcher = make_batcher(registry)
        try:
            with pytest.raises((ValueError, TypeError)):
                batcher.submit("micro", bad)
            assert batcher.admission.depth == 0
        finally:
            batcher.close()

    def test_overlong_sequence(self, registry):
        batcher = make_batcher(registry)
        try:
            too_long = [1] * (MICRO_CONFIG.max_position + 1)
            with pytest.raises(ValueError, match="max_position"):
                batcher.submit("micro", too_long)
        finally:
            batcher.close()

    def test_token_type_shape_mismatch(self, registry):
        batcher = make_batcher(registry)
        try:
            with pytest.raises(ValueError, match="token_type_ids"):
                batcher.submit("micro", [1, 2, 3], token_type_ids=[0, 0])
        finally:
            batcher.close()

    @pytest.mark.parametrize(
        "bad",
        [[0, 7, 0], [0, -1, 0], [0.7, 0.2, 1.9], ["a", "b", "c"], [True, False, True]],
        ids=["oov", "negative", "float", "str", "bool"],
    )
    def test_malformed_token_type_ids(self, registry, bad):
        """Type ids are checked as the token ids are: integers inside the
        model's type vocabulary, else ValueError before admission."""
        batcher = make_batcher(registry)
        try:
            with pytest.raises(ValueError, match="token_type_ids"):
                batcher.submit("micro", [1, 2, 3], token_type_ids=bad)
            assert batcher.admission.depth == 0
        finally:
            batcher.close()

    def test_bad_token_types_never_reach_the_forward(self, registry):
        """An out-of-vocabulary type id once failed its whole fused batch in
        the embedding gather, and six of them tripped the breaker.  Refused
        at submit, they leave the model healthy and its next request
        served."""
        health = HealthMonitor(registry, policy=HealthPolicy(breaker_threshold=3))
        batcher = MicroBatcher(
            registry, AdmissionController(max_pending=16, request_timeout=10.0),
            batch_window=0.0, health=health,
        )
        try:
            for _ in range(6):
                with pytest.raises(ValueError, match="token_type_ids"):
                    batcher.submit("micro", [1, 2, 3], token_type_ids=[0, 9, 0])
            result = batcher.wait(
                batcher.submit("micro", [1, 2, 3], token_type_ids=[0, 1, 1]))
            assert len(result["pooled"]) == MICRO_CONFIG.hidden_size
            assert health.model("micro").state == HEALTHY
        finally:
            batcher.close()
            health.close()

    def test_queue_full_propagates(self, registry, monkeypatch):
        batcher = make_batcher(registry, max_pending=1)
        try:
            batcher.admission.admit()  # occupy the only slot
            with pytest.raises(QueueFullError):
                batcher.submit("micro", [1, 2])
        finally:
            batcher.admission.release()
            batcher.close()


class TestDeadlines:
    def test_timeout_returns_504_error_and_frees_slot(self, registry):
        """A request stuck behind a blocked worker times out; its admission
        slot must come back."""
        batcher = make_batcher(registry, timeout=0.2, max_pending=4)
        release = threading.Event()
        original_forward = batcher._forward

        def stalled_forward(model, live):
            release.wait(5.0)
            return original_forward(model, live)

        batcher._forward = stalled_forward
        try:
            pending = batcher.submit("micro", [1, 2, 3])
            with pytest.raises(RequestTimeoutError):
                batcher.wait(pending)
            assert batcher.admission.depth == 0
            # The forward finishing late must not release the slot again.
            release.set()
            batcher.close()
            assert batcher.admission.depth == 0
            assert pending.result is None
        finally:
            release.set()
            batcher.close()

    def test_expired_in_queue_skipped_at_dequeue(self, registry):
        """A request nobody is waiting on anymore gets dropped when the
        worker reaches it, not computed into a dead batch."""
        batcher = make_batcher(registry, window=0.01, max_pending=8)
        entered, stall = threading.Event(), threading.Event()
        original_forward = batcher._forward

        def gated_forward(model, live):
            entered.set()
            stall.wait(5.0)
            return original_forward(model, live)

        batcher._forward = gated_forward
        try:
            with obs.scope() as trace:
                first = batcher.submit("micro", [1, 2])
                assert entered.wait(5.0)  # the worker is stalled on `first`
                second = batcher.submit("micro", [3, 4])  # queued behind it
                second.deadline = time.perf_counter()  # expires in the queue
                stall.set()
                # Let the worker reach `second` before asking for it, so the
                # dequeue-time expiry path (not the handler-side timeout) is
                # what resolves it.
                assert second.done.wait(5.0)
                # first completes (late but computed)...
                assert batcher.wait(first)["model"] == "micro"
                # ...second was dropped at dequeue with the 504 error.
                with pytest.raises(RequestTimeoutError, match="expired in queue"):
                    batcher.wait(second)
            expired = [event for event in trace.events
                       if event["name"] == "serve.expired_in_queue"]
            assert len(expired) == 1
        finally:
            stall.set()
            batcher.close()


class TestForwardErrors:
    def test_untyped_forward_error_is_a_chained_serve_error(self, registry, monkeypatch):
        """A forward that raises something other than a ReproError reaches
        the handler as a ServeError (which the server answers 500) with the
        original error as its cause."""
        batcher = make_batcher(registry)

        def broken_forward(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(registry.get("micro").model, "forward", broken_forward)
        try:
            with pytest.raises(ServeError, match="RuntimeError: boom") as excinfo:
                batcher.wait(batcher.submit("micro", [1, 2, 3]))
            assert isinstance(excinfo.value.__cause__, RuntimeError)
            assert batcher.admission.depth == 0
        finally:
            batcher.close()


class TestShutdown:
    def test_close_drains_queued_requests(self, registry):
        batcher = make_batcher(registry, window=0.05)
        pending = batcher.submit("micro", [1, 2, 3])
        batcher.close(drain=True)
        result = batcher.wait(pending)
        assert len(result["pooled"]) == MICRO_CONFIG.hidden_size

    def test_submit_after_close_raises(self, registry):
        batcher = make_batcher(registry)
        batcher.close()
        with pytest.raises(ServeError, match="shutting down"):
            batcher.submit("micro", [1, 2])
        assert batcher.admission.depth == 0


class TestObservability:
    def test_request_spans_nest_queue_wait(self, registry):
        batcher = make_batcher(registry, window=0.01)
        try:
            with obs.scope() as trace:
                with obs.recorder.span("serve.request", model="micro"):
                    pending = batcher.submit("micro", [1, 2, 3])
                    batcher.wait(pending)
            by_name = {event["name"]: event for event in trace.events
                       if event["event"] == "span"}
            assert "serve.request" in by_name
            assert by_name["serve.queue_wait"]["parent"] == "serve.request"
            assert by_name["serve.batch"]["parent"] == "serve.request"
            assert by_name["serve.batch"]["attrs"]["batch_size"] == 1
        finally:
            batcher.close()

    def test_batch_span_is_recorded_before_its_handlers_wake(self, registry):
        """A sink that stalls on ``serve.batch`` holds the span's exit; the
        handler's ``wait`` must not return before that span is recorded."""
        handler_waiting, handler_returned = threading.Event(), threading.Event()

        class StallingSink(obs.MemorySink):
            def emit(self, event):
                if event["event"] == "span" and event["name"] == "serve.batch":
                    # Cut short only by a handler that returned first.
                    handler_returned.wait(0.3)
                super().emit(event)
                if event["name"] == "serve.queue_wait":
                    handler_waiting.set()

        batcher = make_batcher(registry, window=0.01)
        original_forward = batcher._forward

        def forward_after_queue_wait(model, live):
            # The handler's last event is recorded: from here it waits on
            # the batch alone, not on the recorder lock the stall holds.
            assert handler_waiting.wait(10.0)
            return original_forward(model, live)

        batcher._forward = forward_after_queue_wait
        try:
            with obs.recording(StallingSink()) as sink:
                batcher.wait(batcher.submit("micro", [1, 2, 3]))
                recorded = [event["name"] for event in sink.events
                            if event["event"] == "span"]
                handler_returned.set()
            assert "serve.batch" in recorded
        finally:
            batcher.close()
