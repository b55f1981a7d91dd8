"""Deadlines, cooperative checkpoints, and transient-retry helpers."""

import threading
import time

import numpy as np
import pytest

from repro.errors import LayerTimeoutError, QuantizationError
from repro.jobs.retry import backoff_delay, is_transient
from repro.jobs.watchdog import (
    Deadline,
    checkpoint,
    current_deadline,
    deadline_scope,
)


class TestDeadline:
    def test_checkpoint_is_noop_without_deadline(self):
        assert current_deadline() is None
        checkpoint()  # must not raise

    def test_expired_deadline_raises_at_checkpoint(self):
        deadline = Deadline(1e-6, label="layerX")
        time.sleep(0.002)
        with deadline_scope(deadline):
            with pytest.raises(LayerTimeoutError, match="layerX"):
                checkpoint()

    def test_unexpired_deadline_passes(self):
        with deadline_scope(Deadline(60.0, label="ok")):
            checkpoint()

    def test_scope_nests_and_restores(self):
        outer, inner = Deadline(60.0, label="outer"), Deadline(60.0, label="inner")
        with deadline_scope(outer):
            assert current_deadline() is outer
            with deadline_scope(inner):
                assert current_deadline() is inner
            assert current_deadline() is outer
        assert current_deadline() is None

    def test_none_scope_accepted(self):
        with deadline_scope(None):
            checkpoint()


class TestEngineTimeout:
    """The engine converts hangs into LayerTimeoutError / timeout failures."""

    def _state(self):
        rng = np.random.default_rng(7)
        return {name: rng.normal(size=(24, 24)) for name in ("a", "b", "c")}

    def test_hang_times_out_under_fail(self):
        from repro.core.parallel import LayerJob, quantize_layers
        from repro.testing.faults import Fault

        jobs = [LayerJob(n, 3) for n in ("a", "b", "c")]
        with pytest.raises(LayerTimeoutError):
            quantize_layers(
                self._state(), jobs, layer_timeout=0.1,
                fault_injector=Fault("hang", target="b"),
            )

    @pytest.mark.parametrize("on_error", ["skip", "fp32-fallback", "retry-higher-bits"])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_hang_becomes_timeout_failure(self, on_error, workers):
        from repro.core.parallel import LayerJob, quantize_layers
        from repro.testing.faults import Fault

        jobs = [LayerJob(n, 3) for n in ("a", "b", "c")]
        started = time.monotonic()
        quantized, _, report = quantize_layers(
            self._state(), jobs, layer_timeout=0.15, workers=workers,
            on_error=on_error, fault_injector=Fault("hang", target="b"),
        )
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, "timeout took far longer than deadline + grace"
        (failure,) = report.failures
        assert failure.name == "b" and failure.action == "timeout"
        # A timed-out layer is never quantized; under skip it is dropped
        # outright, otherwise it resolves to FP32 fallback.
        assert set(quantized) == {"a", "c"}
        assert failure.dropped == (on_error == "skip")

    def test_runner_built_directly_times_out(self):
        """A JobRunner needs nothing beyond layer_timeout to enforce it."""
        from repro.core.parallel import JobRunner, LayerJob
        from repro.testing.faults import Fault

        runner = JobRunner(
            state=self._state(), layer_timeout=0.1, on_error="skip",
            fault_injector=Fault("hang", target="b"),
        )
        outcome = runner.run(1, LayerJob("b", 3))
        assert outcome.tensor is None
        assert outcome.failure.action == "timeout"
        assert outcome.failure.resolution == "skip"

    def test_supervised_run_starts_no_thread(self):
        """Deadlines are read off the clock: a supervised run adds no thread."""
        from repro.core.parallel import LayerJob, quantize_layers

        before = set(threading.enumerate())
        during: list[set] = []

        def look(hook, keys, weights):
            during.append(set(threading.enumerate()))
            return weights

        quantize_layers(
            self._state(), [LayerJob(n, 3) for n in ("a", "b", "c")],
            layer_timeout=30, fault_injector=look,
        )
        assert len(during) == 3
        assert all(threads == before for threads in during)

    def test_slow_layer_within_deadline_is_bit_identical(self):
        from repro.core.parallel import LayerJob, quantize_layers
        from repro.testing.faults import Fault

        state = self._state()
        jobs = [LayerJob(n, 3) for n in state]
        clean, _, _ = quantize_layers(state, jobs)
        slow, _, report = quantize_layers(
            state, jobs, layer_timeout=30.0, fault_injector=Fault("slow", seconds=0.05),
        )
        assert report.ok
        for name in clean:
            assert clean[name].packed_codes == slow[name].packed_codes
            assert np.array_equal(clean[name].centroids, slow[name].centroids)

    def test_bad_timeout_rejected(self):
        from repro.core.parallel import LayerJob, quantize_layers

        with pytest.raises(QuantizationError):
            quantize_layers(self._state(), [LayerJob("a", 3)], layer_timeout=-1.0)


class TestTransientRetry:
    def test_is_transient_classification(self):
        assert is_transient(OSError("disk hiccup"))
        assert not is_transient(ValueError("logic bug"))
        assert not is_transient(LayerTimeoutError("deadline"))

    def test_backoff_grows_and_caps(self):
        delays = [backoff_delay(a, base=0.1, cap=1.0, key="k") for a in range(8)]
        assert all(d > 0 for d in delays)
        # Jitter stays within +/-25%, so the cap bounds every delay.
        assert max(delays) <= 1.25
        assert delays[0] < 0.15

    def test_backoff_deterministic_per_key(self):
        assert backoff_delay(2, key="a") == backoff_delay(2, key="a")
        assert backoff_delay(2, key="a") != backoff_delay(2, key="b")

    def test_engine_absorbs_transient_faults_bit_identically(self):
        from repro.core.parallel import LayerJob, quantize_layers
        from repro.testing.faults import Fault

        rng = np.random.default_rng(8)
        state = {name: rng.normal(size=(24, 24)) for name in ("a", "b")}
        jobs = [LayerJob(n, 3) for n in state]
        clean, _, _ = quantize_layers(state, jobs)
        retried, _, report = quantize_layers(
            state, jobs, transient_retries=2, transient_backoff=0.001,
            fault_injector=Fault("io", target="a", times=2),
        )
        assert report.ok and not report.failures
        for name in clean:
            assert clean[name].packed_codes == retried[name].packed_codes

    def test_exhausted_retries_escalate_to_policy(self):
        from repro.core.parallel import LayerJob, quantize_layers
        from repro.testing.faults import Fault

        rng = np.random.default_rng(9)
        state = {"a": rng.normal(size=(24, 24))}
        _, _, report = quantize_layers(
            state, [LayerJob("a", 3)], transient_retries=1, transient_backoff=0.001,
            on_error="fp32-fallback", fault_injector=Fault("io", target="a", times=5),
        )
        (failure,) = report.failures
        assert failure.action == "fp32-fallback"
        assert failure.transient_retries == 1

    def test_retry_counter_emitted(self):
        from repro import obs
        from repro.core.parallel import LayerJob, quantize_layers
        from repro.testing.faults import Fault

        rng = np.random.default_rng(10)
        state = {"a": rng.normal(size=(24, 24))}
        with obs.scope() as scoped:
            quantize_layers(
                state, [LayerJob("a", 3)], transient_retries=3,
                transient_backoff=0.001,
                fault_injector=Fault("io", target="a", times=2),
            )
        assert scoped.snapshot().counter("engine.retry") == 2

    def test_env_defaults(self, monkeypatch):
        from repro.core.parallel import resolve

        monkeypatch.setenv("REPRO_LAYER_TIMEOUT", "2.5")
        monkeypatch.setenv("REPRO_TRANSIENT_RETRIES", "4")
        assert resolve("layer_timeout") == 2.5
        assert resolve("transient_retries") == 4
        assert resolve("layer_timeout", 1.0) == 1.0
        assert resolve("transient_retries", 0) == 0
