"""Serve-path fault injectors: spec parsing and end-to-end chaos behavior."""

from __future__ import annotations

import time

import pytest

from repro.errors import ChecksumMismatchError, ModelQuarantinedError
from repro.serve import AdmissionController, MicroBatcher, ModelRegistry
from repro.serve.health import QUARANTINED, HealthMonitor, HealthPolicy
from repro.testing.faults import (
    FAULTS_ENV,
    CorruptMemberAtServe,
    FailForward,
    HangForward,
    InjectedFault,
    SlowLoad,
    injector_from_spec,
    serve_injector_from_env,
    serve_injector_from_spec,
)
from tests.conftest import MICRO_CONFIG


class TestSpecParsing:
    def test_each_kind_parses(self):
        injector = serve_injector_from_spec("hang-forward:alpha:2.5:3")
        assert isinstance(injector, HangForward)
        assert (injector.model, injector.seconds, injector.times) == ("alpha", 2.5, 3)
        injector = serve_injector_from_spec("fail-forward:beta:0")
        assert isinstance(injector, FailForward)
        assert (injector.model, injector.times) == ("beta", 0)
        injector = serve_injector_from_spec("corrupt-member-at-serve:gamma")
        assert isinstance(injector, CorruptMemberAtServe)
        assert (injector.model, injector.times) == ("gamma", 1)
        injector = serve_injector_from_spec("slow-load:0.5:delta")
        assert isinstance(injector, SlowLoad)
        assert (injector.seconds, injector.model) == (0.5, "delta")

    def test_engine_kinds_are_skipped(self):
        """One REPRO_FAULTS value carries both families; each parser takes
        only its own kinds."""
        spec = "crash:3,hang-forward:alpha:1:1,kill-worker:1"
        serve = serve_injector_from_spec(spec)
        assert isinstance(serve, HangForward)
        engine = injector_from_spec("hang-forward:alpha:1:1,slow:0.1")
        assert engine is not None and not isinstance(engine, HangForward)

    def test_engine_only_spec_yields_none(self):
        assert serve_injector_from_spec("crash:3,slow:0.1") is None

    def test_unknown_kind_raises_in_both_parsers(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            serve_injector_from_spec("melt-cpu:1")
        with pytest.raises(ValueError, match="unknown fault kind"):
            injector_from_spec("melt-cpu:1")

    def test_composition_first_raise_wins(self):
        injector = serve_injector_from_spec(
            "fail-forward:alpha:1,slow-load:0.01")
        with pytest.raises(InjectedFault):
            injector("forward", "alpha")
        injector("forward", "alpha")  # times=1: cleared
        injector("load", "alpha")  # only the slow-load applies

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert serve_injector_from_env() is None
        monkeypatch.setenv(FAULTS_ENV, "fail-forward:alpha:2")
        injector = serve_injector_from_env()
        assert isinstance(injector, FailForward)


class TestInjectorBehavior:
    def test_fail_forward_counts_and_clears(self):
        injector = FailForward("alpha", times=2)
        for _ in range(2):
            with pytest.raises(InjectedFault):
                injector("forward", "alpha")
        injector("forward", "alpha")  # cleared
        injector("forward", "beta")  # other models never matched

    def test_fail_forward_persistent(self):
        injector = FailForward(times=0)  # any model, forever
        for _ in range(5):
            with pytest.raises(InjectedFault):
                injector("forward", "anything")

    def test_corrupt_member_raises_integrity_type(self):
        injector = CorruptMemberAtServe("alpha")
        with pytest.raises(ChecksumMismatchError, match="CRC"):
            injector("forward", "alpha")
        injector("forward", "alpha")  # times=1: cleared
        injector("load", "alpha")  # wrong stage: inert

    def test_hang_forward_ignores_load_stage(self):
        injector = HangForward("alpha", seconds=5.0, times=1)
        started = time.monotonic()
        injector("load", "alpha")
        injector("forward", "beta")
        assert time.monotonic() - started < 1.0


@pytest.fixture
def registry(micro_archive):
    registry = ModelRegistry()
    registry.register("micro", micro_archive, config=MICRO_CONFIG)
    yield registry
    registry.close()


class TestFaultsDriveTheBreaker:
    def test_fail_forward_trips_quarantine(self, registry):
        """Persistent forward failures walk the model through the breaker:
        requests 1..threshold get 500-shaped errors, request threshold+1
        is refused at admission with 503-shaped ModelQuarantinedError."""
        policy = HealthPolicy(breaker_window=30.0, breaker_threshold=3,
                              cooldown=60.0)
        health = HealthMonitor(registry, policy=policy)
        batcher = MicroBatcher(
            registry, AdmissionController(max_pending=16, request_timeout=5.0),
            batch_window=0.0, health=health, fault=FailForward("micro", times=0),
        )
        try:
            for _ in range(policy.breaker_threshold):
                with pytest.raises(InjectedFault):
                    batcher.wait(batcher.submit("micro", [1, 2, 3]))
            assert health.model("micro").state == QUARANTINED
            with pytest.raises(ModelQuarantinedError):
                batcher.submit("micro", [1, 2, 3])
            assert batcher.admission.depth == 0
        finally:
            batcher.close()
            health.close()

    def test_slow_load_delays_registry_loads(self, micro_archive):
        registry = ModelRegistry(fault=SlowLoad(0.2, model="slowpoke"))
        try:
            started = time.monotonic()
            registry.register("slowpoke", micro_archive, config=MICRO_CONFIG)
            assert time.monotonic() - started >= 0.2
        finally:
            registry.close()


class TestServeCli:
    def test_malformed_fault_spec_exits_2(self, micro_archive, monkeypatch, capsys):
        """A bad REPRO_FAULTS value stops `repro serve` before it loads a
        model, with exit 2 and a one-line message, not a traceback."""
        from repro.cli import main

        monkeypatch.setenv(FAULTS_ENV, "hang-forward")
        code = main(["serve", "--model", f"tiny={micro_archive}", "--port", "0"])
        assert code == 2
        assert "bad fault spec 'hang-forward'" in capsys.readouterr().err
