"""Fault-injection tests: every failure policy, end-to-end, any worker count."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model_quantizer import quantize_model, quantize_state_dict
from repro.core.parallel import (
    LayerJob,
    ON_ERROR_ENV,
    ON_ERROR_POLICIES,
    quantize_layers,
    resolve,
)
from repro.core.serialization import load_quantized_model, save_quantized_model
from repro.errors import QuantizationError
from repro.models.heads import BertForSequenceClassification
from repro.testing.faults import Fault, InjectedFault, compose_injectors
from tests.conftest import MICRO_CONFIG

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def state():
    rng = np.random.default_rng(7)
    return {f"layer{i}": rng.normal(0, 0.05, size=(24, 24)) for i in range(6)}


@pytest.fixture(scope="module")
def jobs(state):
    return [LayerJob(name, 3) for name in state]


class TestOnErrorResolution:
    def test_default_is_fail(self, monkeypatch):
        monkeypatch.delenv(ON_ERROR_ENV, raising=False)
        assert resolve("on_error", None) == "fail"
        assert resolve("on_error") == "fail"

    def test_environment_read(self, monkeypatch):
        monkeypatch.setenv(ON_ERROR_ENV, "fp32-fallback")
        assert resolve("on_error", None) == "fp32-fallback"

    def test_bad_environment_rejected(self, monkeypatch):
        monkeypatch.setenv(ON_ERROR_ENV, "explode")
        with pytest.raises(QuantizationError):
            resolve("on_error")

    def test_unknown_policy_rejected(self):
        with pytest.raises(QuantizationError, match="on_error"):
            resolve("on_error", "panic")

    def test_policies_exported(self):
        assert ON_ERROR_POLICIES == ("fail", "skip", "fp32-fallback", "retry-higher-bits")


class TestFailureIsolation:
    def test_fail_policy_reraises(self, state, jobs):
        with pytest.raises(InjectedFault):
            quantize_layers(state, jobs, fault_injector=Fault("raise", target="layer2"))

    def test_fail_policy_reraises_parallel(self, state, jobs):
        with pytest.raises(InjectedFault):
            quantize_layers(
                state, jobs, workers=3, fault_injector=Fault("raise", target="layer2")
            )

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_skip_drops_only_the_failing_layer(self, state, jobs, workers):
        quantized, iterations, report = quantize_layers(
            state, jobs, workers=workers,
            on_error="skip", fault_injector=Fault("raise", target="layer2"),
        )
        assert sorted(quantized) == sorted(set(state) - {"layer2"})
        assert "layer2" not in iterations
        [failure] = report.failures
        assert failure.name == "layer2" and failure.action == "skip"
        assert failure.error_type == "InjectedFault"
        assert failure.dropped and not failure.quantized_anyway
        assert not report.ok

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_fp32_fallback_records_failure(self, state, jobs, workers):
        quantized, _, report = quantize_layers(
            state, jobs, workers=workers,
            on_error="fp32-fallback", fault_injector=Fault("raise", target="layer4"),
        )
        assert "layer4" not in quantized
        [failure] = report.failures
        assert failure.action == "fp32-fallback" and not failure.dropped

    @pytest.mark.parametrize("failing", [f"layer{i}" for i in range(6)])
    def test_surviving_layers_bit_identical_to_clean_run(self, state, jobs, failing):
        """Acceptance: any single failing layer, every worker count, the
        remaining layers match a clean run bit for bit."""
        clean, clean_iters, _ = quantize_layers(state, jobs, workers=1)
        for workers in WORKER_COUNTS:
            quantized, iterations, report = quantize_layers(
                state, jobs, workers=workers,
                on_error="fp32-fallback", fault_injector=Fault("raise", target=failing),
            )
            assert report.failed_layer_names == (failing,)
            assert sorted(quantized) == sorted(set(state) - {failing})
            for name, tensor in quantized.items():
                assert tensor.packed_codes == clean[name].packed_codes
                np.testing.assert_array_equal(tensor.centroids, clean[name].centroids)
                np.testing.assert_array_equal(
                    tensor.outlier_values, clean[name].outlier_values
                )
                assert iterations[name] == clean_iters[name]

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_transient_fault_fails_exactly_once(self, state, jobs, workers):
        quantized, _, report = quantize_layers(
            state, jobs, workers=workers,
            on_error="skip", fault_injector=Fault("raise", times=1),
        )
        assert len(report.failures) == 1
        assert len(quantized) == len(state) - 1

    def test_failure_order_follows_job_order(self, state, jobs):
        quantized, _, report = quantize_layers(
            state, jobs, workers=4, on_error="skip",
            fault_injector=compose_injectors(
                Fault("raise", target="layer1"), Fault("raise", target="layer5")
            ),
        )
        assert report.failed_layer_names == ("layer1", "layer5")

    def test_render_includes_failures(self, state, jobs):
        _, _, report = quantize_layers(
            state, jobs, on_error="fp32-fallback",
            fault_injector=Fault("raise", target="layer0"),
        )
        text = report.render()
        assert "Layer failures" in text and "fp32-fallback" in text
        assert "InjectedFault" in text


class TestRetryHigherBits:
    def test_recovers_at_wider_width(self, state):
        # bits=0 genuinely fails (bits must be >= 1); the first retry at 1
        # succeeds, so the layer ships quantized — wider than requested.
        jobs = [LayerJob("layer0", 0), LayerJob("layer1", 3)]
        quantized, _, report = quantize_layers(
            state, jobs, on_error="retry-higher-bits"
        )
        assert quantized["layer0"].bits == 1
        [failure] = report.failures
        assert failure.action == "retry-higher-bits"
        assert failure.recovered_bits == 1
        assert failure.attempts == (0, 1)
        assert failure.quantized_anyway

    def test_persistent_fault_exhausts_retries_to_fp32(self, state, jobs):
        quantized, _, report = quantize_layers(
            state, jobs, on_error="retry-higher-bits",
            fault_injector=Fault("raise", target="layer3"),
        )
        assert "layer3" not in quantized
        [failure] = report.failures
        assert failure.action == "fp32-fallback"
        assert failure.recovered_bits is None
        assert failure.attempts == (3, 4, 5, 6, 7, 8)


class TestPoisonedTensors:
    @pytest.mark.parametrize("mode", ["nan", "inf", "constant"])
    def test_strict_validation_fails_poisoned_layer(self, state, jobs, mode):
        quantized, _, report = quantize_layers(
            state, jobs, on_error="fp32-fallback",
            fault_injector=Fault("poison", target="layer1", mode=mode),
        )
        assert "layer1" not in quantized
        [failure] = report.failures
        assert failure.error_type in ("NonFiniteWeightError", "DegenerateTensorError")

    def test_repair_validation_recovers_poisoned_layer(self, state, jobs):
        quantized, _, report = quantize_layers(
            state, jobs, validation="repair",
            fault_injector=Fault("poison", target="layer1", mode="nan"),
        )
        assert report.ok and len(quantized) == len(state)
        assert np.isfinite(quantized["layer1"].dequantize(np.float64)).all()

    def test_skip_validation_ships_layer_fp32(self, state, jobs):
        quantized, _, report = quantize_layers(
            state, jobs, validation="skip",
            fault_injector=Fault("poison", target="layer1", mode="nan"),
        )
        assert "layer1" not in quantized
        [failure] = report.failures
        assert failure.action == "validation-skip"


class TestEndToEndModel:
    """Acceptance: a degraded run still produces a loadable archive."""

    @pytest.fixture(scope="class")
    def model(self):
        return BertForSequenceClassification(MICRO_CONFIG, num_labels=3, rng=0)

    def test_fp32_fallback_model_round_trips(self, model, tmp_path):
        clean = quantize_model(model, weight_bits=3, embedding_bits=4)
        failing_layer = clean.fc_names[2]
        degraded = quantize_model(
            model, weight_bits=3, embedding_bits=4,
            on_error="fp32-fallback", fault_injector=Fault("raise", target=failing_layer),
        )
        assert degraded.report.failed_layer_names == (failing_layer,)
        # The failed layer ships FP32 and the state dict stays complete.
        assert failing_layer in degraded.fp32
        assert set(degraded.state_dict()) == set(clean.state_dict())
        # Remaining quantized layers are bit-identical to the clean run.
        for name, tensor in degraded.quantized.items():
            assert tensor.packed_codes == clean.quantized[name].packed_codes
        # The archive round-trips and applies to a fresh model.
        path = tmp_path / "degraded.npz"
        save_quantized_model(degraded, path)
        loaded = load_quantized_model(path)
        probe = BertForSequenceClassification(MICRO_CONFIG, num_labels=3, rng=1)
        loaded.apply_to(probe)
        np.testing.assert_array_equal(
            probe.state_dict()[failing_layer],
            np.asarray(model.state_dict()[failing_layer], dtype=np.float32).astype(np.float64),
        )

    def test_skip_policy_drops_layer_from_state_dict(self, model):
        clean = quantize_model(model, weight_bits=3, embedding_bits=4)
        failing_layer = clean.fc_names[0]
        degraded = quantize_model(
            model, weight_bits=3, embedding_bits=4,
            on_error="skip", fault_injector=Fault("raise", target=failing_layer),
        )
        assert failing_layer not in degraded.state_dict()
        assert failing_layer not in degraded.fp32

    def test_state_dict_interface_forwards_policies(self, model, monkeypatch):
        monkeypatch.setenv(ON_ERROR_ENV, "fp32-fallback")
        state = model.state_dict()
        from repro.core.model_quantizer import select_parameters

        selection = select_parameters(model)
        quantized = quantize_state_dict(
            state, fc_names=selection.fc_names, embedding_names=(),
            on_error=None,  # defer to REPRO_ON_ERROR
            fault_injector=Fault("raise", target=selection.fc_names[1]),
        )
        assert quantized.report.on_error == "fp32-fallback"
        assert len(quantized.report.failures) == 1


class TestFaultSpecs:
    """Text fault specs (REPRO_FAULTS) build the right injectors."""

    def test_empty_spec_is_none(self):
        from repro.testing.faults import injector_from_env, injector_from_spec

        assert injector_from_spec("") is None
        assert injector_from_spec("  ,  ") is None
        assert injector_from_env("REPRO_FAULTS_UNSET_FOR_TEST") is None

    def test_single_specs(self):
        from repro.testing.faults import injector_from_spec

        assert injector_from_spec("raise:layer0") == Fault("raise", target="layer0")
        assert injector_from_spec("raise:2").target == 2
        assert injector_from_spec("hang:emb.word") == Fault("hang", target="emb.word")
        assert injector_from_spec("slow:0.25") == Fault("slow", seconds=0.25)
        assert injector_from_spec("slow:0.1:3").target == 3
        assert injector_from_spec("transient-io:layer1:2") == Fault(
            "io", target="layer1", times=2
        )
        assert injector_from_spec("transient-io:0").times == 1
        assert injector_from_spec("crash:4") == Fault("crash", nth=4, times=1)
        assert injector_from_spec("poison:layer2:inf") == Fault(
            "poison", target="layer2", mode="inf"
        )

    def test_composed_spec(self):
        from repro.testing.faults import InjectedIOError, injector_from_spec

        injector = injector_from_spec("transient-io:a:1, poison:b:constant")
        weights = np.ones((4, 4))
        with pytest.raises(InjectedIOError):
            injector("layer", (0, "a"), weights)
        poisoned = injector("layer", (1, "b"), weights)
        assert poisoned is not weights and np.all(poisoned == 0.5)
        assert injector("layer", (2, "c"), weights) is weights

    def test_bad_specs_rejected(self):
        from repro.testing.faults import injector_from_spec

        for bad in ("explode:1", "crash", "crash:soon", "slow", "hang"):
            with pytest.raises(ValueError):
                injector_from_spec(bad)

    def test_env_spec_errors_surface(self, monkeypatch):
        from repro.testing.faults import FAULTS_ENV, injector_from_env

        monkeypatch.setenv(FAULTS_ENV, "bogus:x")
        with pytest.raises(ValueError):
            injector_from_env()


class TestOneProtocol:
    """The engine, the batcher and the registry all call
    ``fault(hook, keys, value)``; a fault counts and fires only at its own
    hook."""

    def test_counting_is_per_hook(self):
        from repro.testing.faults import InjectedIOError, injector_from_spec

        injector = injector_from_spec("transient-io:a:1,fail-forward:m:2")
        for _ in range(2):
            with pytest.raises(InjectedFault):
                injector("forward", ("m",))
        assert injector("forward", ("m",)) is None
        weights = np.ones((2, 2))
        with pytest.raises(InjectedIOError):
            injector("layer", (0, "a"), weights)
        assert injector("layer", (0, "a"), weights) is weights

    def test_serve_faults_leave_quantize_bit_identical(self):
        """Forward and load faults aimed at a layer's own name never fire in
        the engine."""
        from repro.testing.faults import injector_from_spec

        rng = np.random.default_rng(11)
        state = {name: rng.normal(0, 0.05, size=(24, 24)) for name in ("x", "y")}
        jobs = [LayerJob(name, 3) for name in state]
        clean, clean_iters, _ = quantize_layers(state, jobs)
        faulted, iters, report = quantize_layers(
            state, jobs, workers=2,
            fault_injector=injector_from_spec(
                "fail-forward:x:0,hang-forward:x:30,slow-load:30"
            ),
        )
        assert report.ok and iters == clean_iters
        for name, tensor in clean.items():
            assert faulted[name].packed_codes == tensor.packed_codes
            np.testing.assert_array_equal(faulted[name].centroids, tensor.centroids)
            np.testing.assert_array_equal(
                faulted[name].outlier_values, tensor.outlier_values
            )


class TestFaultSpecValidation:
    """Every value in a spec is checked at parse time, by every entry
    point, and fails with the typed FaultSpecError (a ConfigError and a
    ValueError) — never later, when the fault fires, and never by building
    a fault that cannot fire."""

    #: Each of these used to parse: then raised inside the engine, slept a
    #: negative or infinite time, silently did nothing, or never fired.
    DEFECTS = (
        "poison:0:xyz",
        "slow:nan",
        "slow:-1",
        "hang-forward:m:-1",
        "hang-forward:m:inf",
        "slow-load:-1",
        "crash:-3",
        # The process backend's worker kinds are gone: a spec naming one
        # must fail loudly, never run without its fault.
        "kill-worker:-1",
        "fail-forward:m:-2",
        "hang-forward",
    )

    @pytest.mark.parametrize("spec", DEFECTS)
    def test_defect_rejected_by_both_parsers(self, spec):
        from repro.errors import ConfigError, FaultSpecError
        from repro.testing.faults import injector_from_spec, parse_fault_spec

        for parse in (parse_fault_spec, injector_from_spec):
            with pytest.raises(FaultSpecError, match="bad fault spec") as info:
                parse(spec)
            assert isinstance(info.value, ConfigError)
            assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("spec", [
        "crash:1:2", "raise:", "raise:-1", "slow:0.1:", "hang-forward::1",
        "fail-forward:m:1:2", "transient-io:a:0", "hang-forward:m:1:0",
        # Removed worker kinds, rejected as unknown (see DEFECTS).
        "kill-worker:0:0", "mute-worker:0:1e999",
    ])
    def test_arity_and_ranges_rejected(self, spec):
        from repro.errors import FaultSpecError
        from repro.testing.faults import injector_from_spec

        with pytest.raises(FaultSpecError):
            injector_from_spec(spec)

    def test_persistent_times_and_zero_values_accepted(self):
        from repro.testing.faults import injector_from_spec

        assert injector_from_spec("fail-forward:m:0").times == 0
        assert injector_from_spec("corrupt-member-at-serve:m:0").times == 0
        assert injector_from_spec("raise:0").target == 0
        assert injector_from_spec("slow:0").seconds == 0.0

    def test_poison_mode_checked_at_construction(self):
        with pytest.raises(ValueError, match="unknown poison mode"):
            Fault("poison", target=0, mode="xyz")

    TOKENS = (
        "raise", "hang", "slow", "transient-io", "crash", "poison",
        "hang-forward", "fail-forward", "corrupt-member-at-serve", "slow-load",
        ":", ",", *"0123456789", "-", ".", "e", "nan", "inf",
    )
    #: Spec kinds whose fault fires on every matching call (times 0).
    EVERY_CALL = ("raise", "hang", "slow", "poison", "slow-load")
    #: Spec kinds whose TIMES may be 0, meaning persistent.
    PERSISTENT_TIMES = ("fail-forward", "corrupt-member-at-serve")

    @given(st.lists(st.sampled_from(TOKENS), max_size=14).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_property_grammar_alphabet(self, spec):
        """Any string over the grammar's alphabet: the parser returns None
        or a callable, or raises FaultSpecError; whatever parses holds only
        values its fault can act on."""
        import math

        from repro.errors import FaultSpecError
        from repro.testing.faults import (
            FAULT_KINDS,
            HOOKS,
            POISON_MODES,
            injector_from_spec,
            parse_fault_spec,
        )

        try:
            injector = injector_from_spec(spec)
        except FaultSpecError:
            return
        assert injector is None or callable(injector)
        parts = [part.strip() for part in spec.split(",") if part.strip()]
        faults = parse_fault_spec(spec)
        assert len(faults) == len(parts)
        for part, fault in zip(parts, faults):
            kind = part.partition(":")[0]
            assert fault.kind in FAULT_KINDS and fault.hook in HOOKS
            assert fault.mode in POISON_MODES
            assert math.isfinite(fault.seconds) and fault.seconds >= 0
            assert fault.nth >= 1
            if kind in self.EVERY_CALL:
                assert fault.times == 0
            else:
                assert fault.times >= (0 if kind in self.PERSISTENT_TIMES else 1)
            if isinstance(fault.target, str):
                assert fault.target
            elif fault.target is not None:
                assert fault.target >= 0

    @given(st.lists(st.sampled_from(TOKENS), max_size=14).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_faults_are_inert_at_other_hooks(self, spec):
        """Whatever parses, called at any hook but its own with keys its
        target matches, returns the value untouched, raises nothing and
        counts nothing."""
        import dataclasses
        from unittest import mock

        from repro.errors import FaultSpecError
        from repro.testing import faults

        try:
            parsed = faults.parse_fault_spec(spec)
        except FaultSpecError:
            return
        sentinel = object()
        with mock.patch.object(faults, "crash_process", side_effect=AssertionError):
            for fault in parsed:
                fault = dataclasses.replace(fault, seconds=0.0)  # a misfire fails fast
                keys = (0, "layer0") if fault.target is None else (fault.target,)
                for hook in set(faults.HOOKS) - {fault.hook}:
                    assert fault(hook, keys, sentinel) is sentinel
                assert fault._calls == 0
