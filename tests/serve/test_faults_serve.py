"""Serve-path faults: spec parsing, the one hook protocol, and end-to-end
chaos behavior."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.errors import ChecksumMismatchError, ModelQuarantinedError, ServeError
from repro.serve import AdmissionController, MicroBatcher, ModelRegistry
from repro.serve.health import QUARANTINED, HealthMonitor, HealthPolicy
from repro.testing.faults import (
    FAULTS_ENV,
    Fault,
    InjectedFault,
    injector_from_env,
    injector_from_spec,
    parse_fault_spec,
)
from tests.conftest import MICRO_CONFIG


class TestSpecParsing:
    def test_each_kind_parses(self):
        assert injector_from_spec("hang-forward:alpha:2.5:3") == Fault(
            "wedge", "forward", "alpha", seconds=2.5, times=3)
        assert injector_from_spec("fail-forward:beta:0") == Fault(
            "raise", "forward", "beta", times=0)
        assert injector_from_spec("corrupt-member-at-serve:gamma") == Fault(
            "crc", "forward", "gamma", times=1)
        assert injector_from_spec("slow-load:0.5:delta") == Fault(
            "wedge", "load", "delta", seconds=0.5)

    def test_engine_kinds_are_skipped(self):
        """One REPRO_FAULTS value carries engine and serve faults; each
        fires only where its own hook is called."""
        spec = "crash:3,hang-forward:alpha:1:1"
        assert [f.hook for f in parse_fault_spec(spec)] == ["layer", "forward"]
        mixed = injector_from_spec("raise:alpha,fail-forward:alpha:0,slow-load:5:beta")
        with pytest.raises(InjectedFault, match="layer"):
            mixed("layer", (0, "alpha"), np.ones(3))
        with pytest.raises(InjectedFault, match="forward"):
            mixed("forward", ("alpha",))
        sentinel = object()
        assert mixed("load", ("alpha",), sentinel) is sentinel

    def test_engine_only_spec_yields_none(self, monkeypatch):
        """A spec without serve faults is inert at the forward and load
        hooks: each call hands back the value it was given (None by default)."""
        from repro.testing import faults

        def misfired_crash():
            raise AssertionError("a layer crash fault fired at a serve hook")

        monkeypatch.setattr(faults, "crash_process", misfired_crash)
        sentinel = object()
        for spec in ("crash:3,slow:0.1",
                     "raise:alpha,transient-io:alpha:5,poison:alpha,slow:5"):
            layer_only = injector_from_spec(spec)
            for hook in ("forward", "load"):
                assert layer_only(hook, ("alpha",), sentinel) is sentinel
                assert layer_only(hook, ("alpha",)) is None

    def test_unknown_kind_raises_in_both_parsers(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            parse_fault_spec("melt-cpu:1")
        with pytest.raises(ValueError, match="unknown fault kind"):
            injector_from_spec("melt-cpu:1")

    def test_composition_first_raise_wins(self):
        injector = injector_from_spec("fail-forward:alpha:1,slow-load:0.01")
        with pytest.raises(InjectedFault):
            injector("forward", ("alpha",))
        injector("forward", ("alpha",))  # times=1: cleared
        injector("load", ("alpha",))  # only the slow-load applies

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert injector_from_env() is None
        monkeypatch.setenv(FAULTS_ENV, "fail-forward:alpha:2")
        assert injector_from_env() == Fault("raise", "forward", "alpha", times=2)


class TestInjectorBehavior:
    def test_fail_forward_counts_and_clears(self):
        injector = Fault("raise", "forward", "alpha", times=2)
        for _ in range(2):
            with pytest.raises(InjectedFault):
                injector("forward", ("alpha",))
        injector("forward", ("alpha",))  # cleared
        injector("forward", ("beta",))  # other models never matched

    def test_fail_forward_persistent(self):
        injector = Fault("raise", "forward")  # any model, forever
        for _ in range(5):
            with pytest.raises(InjectedFault):
                injector("forward", ("anything",))

    def test_corrupt_member_raises_integrity_type(self):
        injector = Fault("crc", "forward", "alpha", times=1)
        with pytest.raises(ChecksumMismatchError, match="CRC"):
            injector("forward", ("alpha",))
        injector("forward", ("alpha",))  # times=1: cleared
        injector("load", ("alpha",))  # wrong hook: inert

    def test_hang_forward_ignores_load_stage(self):
        injector = Fault("wedge", "forward", "alpha", seconds=5.0, times=1)
        started = time.monotonic()
        injector("load", ("alpha",))
        injector("forward", ("beta",))
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
        requests 1..threshold get 500-shaped errors (a ServeError chained to
        the injected fault), request threshold+1 is refused at admission
        with 503-shaped ModelQuarantinedError."""
        policy = HealthPolicy(breaker_window=30.0, breaker_threshold=3,
                              cooldown=60.0)
        health = HealthMonitor(registry, policy=policy)
        batcher = MicroBatcher(
            registry, AdmissionController(max_pending=16, request_timeout=5.0),
            batch_window=0.0, health=health, fault=Fault("raise", "forward", "micro"),
        )
        try:
            for _ in range(policy.breaker_threshold):
                with pytest.raises(ServeError, match="InjectedFault") as excinfo:
                    batcher.wait(batcher.submit("micro", [1, 2, 3]))
                assert isinstance(excinfo.value.__cause__, InjectedFault)
            assert health.model("micro").state == QUARANTINED
            with pytest.raises(ModelQuarantinedError):
                batcher.submit("micro", [1, 2, 3])
            assert batcher.admission.depth == 0
        finally:
            batcher.close()
            health.close()

    def test_layer_faults_leave_a_forward_untouched(self, registry):
        """Faults aimed at the engine hook never fire in the batcher, even
        one whose target is the model's own name."""
        admission = AdmissionController(max_pending=16, request_timeout=5.0)
        clean = MicroBatcher(registry, admission, batch_window=0.0)
        try:
            expected = clean.wait(clean.submit("micro", [1, 2, 3]))
        finally:
            clean.close()
        batcher = MicroBatcher(
            registry, admission, batch_window=0.0,
            fault=injector_from_spec(
                "raise:0,transient-io:0:5,poison:0,hang:0,raise:micro"),
        )
        try:
            result = batcher.wait(batcher.submit("micro", [1, 2, 3]))
        finally:
            batcher.close()
        assert result["pooled"] == expected["pooled"]

    def test_slow_load_delays_registry_loads(self, micro_archive):
        registry = ModelRegistry(fault=Fault("wedge", "load", "slowpoke", seconds=0.2))
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
