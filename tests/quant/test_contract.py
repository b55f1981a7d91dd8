"""Cross-method quantizer contract suite.

Every spec in :func:`repro.quant.registry.available_specs` must honor the
same engine-level contract — determinism across runs and worker counts,
dtype/shape-faithful reconstruction, format-v3 archive round-trips,
serving through the compressed-inference kernels, validation policies for
degenerate and non-finite tensors, and the engine's ``on_error`` fault
policies.  The suite parametrizes over the registry, so a
method registered tomorrow is held to the contract automatically (and a
method that silently breaks it cannot hide behind its own unit tests).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.model_quantizer import select_parameters
from repro.core.serialization import (
    load_quantized_model,
    save_quantized_model,
    verify_archive,
)
from repro.errors import DegenerateTensorError, NonFiniteWeightError
from repro.jobs.runner import DurableJob
from repro.models import attach_quantized_linears
from repro.models.zoo import build_model
from repro.nn import QuantizedEmbedding
from repro.quant.registry import available_specs, build_quantizer
from repro.testing.faults import Fault, InjectedFault
from tests.conftest import MICRO_CONFIG

SPECS = available_specs()


@pytest.fixture(scope="module")
def model():
    return build_model(MICRO_CONFIG, task="encoder", rng=0)


@pytest.fixture(scope="module")
def state(model):
    return model.state_dict()


@pytest.fixture(scope="module")
def selection(model):
    return select_parameters(model)


def quantize_spec(spec, state, selection, **kwargs):
    return build_quantizer(spec).quantize(
        state, selection.fc_names, selection.embedding_names, **kwargs
    )


def archive_bytes(quantized, path):
    save_quantized_model(quantized, path)
    return path.read_bytes()


class TestRegistryBreadth:
    def test_at_least_eight_specs(self):
        assert len(SPECS) >= 8

    def test_specs_are_unique_and_parse(self):
        assert len(set(SPECS)) == len(SPECS)
        for spec in SPECS:
            quantizer = build_quantizer(spec)
            assert isinstance(quantizer.name, str) and quantizer.name
            assert isinstance(quantizer.requires_finetuning, bool)


@pytest.mark.parametrize("spec", SPECS)
class TestDeterminism:
    def test_archives_identical_across_runs_and_worker_counts(
        self, spec, state, selection, tmp_path
    ):
        first = archive_bytes(
            quantize_spec(spec, state, selection, workers=1), tmp_path / "a.npz"
        )
        again = archive_bytes(
            quantize_spec(spec, state, selection, workers=1), tmp_path / "b.npz"
        )
        fanned = archive_bytes(
            quantize_spec(spec, state, selection, workers=3), tmp_path / "c.npz"
        )
        assert first == again, f"{spec} is not run-to-run deterministic"
        assert first == fanned, f"{spec} archive depends on the worker count"


@pytest.mark.parametrize("spec", SPECS)
class TestReconstruction:
    def test_state_dict_dtype_and_shape_fidelity(self, spec, state, selection):
        quantized = quantize_spec(spec, state, selection)
        for dtype in (np.float32, np.float64):
            reconstructed = quantized.state_dict(dtype)
            assert set(reconstructed) == set(state)
            for name, value in reconstructed.items():
                assert value.dtype == np.dtype(dtype), (spec, name)
                assert value.shape == np.asarray(state[name]).shape, (spec, name)

    def test_every_requested_tensor_is_quantized(self, spec, state, selection):
        quantized = quantize_spec(spec, state, selection)
        expected = set(selection.fc_names) | set(selection.embedding_names)
        assert set(quantized.quantized) == expected
        assert not quantized.report.failures
        assert quantized.model_compression_ratio() > 0

    def test_dequantize_error_is_bounded(self, spec, state, selection):
        quantized = quantize_spec(spec, state, selection)
        for name, tensor in quantized.quantized.items():
            diff = np.asarray(state[name], np.float64) - tensor.dequantize(np.float64)
            assert np.isfinite(diff).all(), (spec, name)
            # Micro-model weights have std ~0.06; anything past this bound
            # means the method reconstructed garbage, not a coarse grid.
            assert float(np.abs(diff).max()) < 0.25, (spec, name)


@pytest.mark.parametrize("spec", SPECS)
class TestSerialization:
    def test_round_trip_through_format_v3(self, spec, state, selection, tmp_path):
        quantized = quantize_spec(spec, state, selection)
        path = tmp_path / "model.npz"
        save_quantized_model(quantized, path)

        check = verify_archive(path)
        assert check.ok and check.version == 3, (spec, check)

        eager = load_quantized_model(path)
        lazy = load_quantized_model(path, lazy=True)
        want = quantized.state_dict(np.float32)
        for loaded in (eager, lazy):
            got = loaded.state_dict(np.float32)
            assert set(got) == set(want)
            for name in want:
                np.testing.assert_array_equal(got[name], want[name], err_msg=f"{spec}:{name}")


@pytest.mark.parametrize("spec", SPECS)
class TestServing:
    def test_attached_forward_matches_dequantize_path(self, spec, state, selection):
        """Every method's tensors serve: the forward on the compressed FC
        layers equals the dequantize-then-load forward."""
        quantized = quantize_spec(spec, state, selection)
        reference = quantized.apply_to(build_model(MICRO_CONFIG, rng=0)).eval()
        served = attach_quantized_linears(build_model(MICRO_CONFIG, rng=0), quantized)
        ids = np.random.default_rng(0).integers(0, MICRO_CONFIG.vocab_size, size=(2, 9))
        for got, want in zip(served(ids), reference(ids)):
            np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-9, err_msg=spec)

    def test_attach_decodes_nothing(self, spec, state, selection):
        """Every quantized tensor, embedding tables included, is served by
        its compressed module: attach makes no dequantize call."""
        quantized = quantize_spec(spec, state, selection)
        with obs.scope() as trace:
            served = attach_quantized_linears(build_model(MICRO_CONFIG, rng=0), quantized)
        names = [event["name"] for event in trace.events]
        assert "quantizer.dequantize_calls" not in names, spec
        modules = dict(served.named_modules())
        for name in selection.embedding_names:
            assert isinstance(modules[name[: -len(".weight")]], QuantizedEmbedding), spec


@pytest.mark.parametrize("spec", SPECS)
class TestValidationPolicies:
    def test_non_finite_strict_raises(self, spec, state, selection):
        poisoned = dict(state)
        target = selection.fc_names[0]
        bad = np.array(poisoned[target], dtype=np.float64)
        bad.flat[0] = np.nan
        poisoned[target] = bad
        with pytest.raises(NonFiniteWeightError):
            quantize_spec(spec, poisoned, selection, validation="strict")

    def test_non_finite_repair_reconstructs_finite(self, spec, state, selection):
        poisoned = dict(state)
        target = selection.fc_names[0]
        bad = np.array(poisoned[target], dtype=np.float64)
        bad.flat[:3] = (np.nan, np.inf, -np.inf)
        poisoned[target] = bad
        quantized = quantize_spec(spec, poisoned, selection, validation="repair")
        reconstructed = quantized.quantized[target].dequantize(np.float64)
        assert np.isfinite(reconstructed).all()

    def test_degenerate_strict_raises(self, spec, state, selection):
        poisoned = dict(state)
        target = selection.fc_names[0]
        poisoned[target] = np.full_like(
            np.asarray(poisoned[target], dtype=np.float64), 0.125
        )
        with pytest.raises(DegenerateTensorError):
            quantize_spec(spec, poisoned, selection, validation="strict")

    def test_degenerate_repair_is_exact(self, spec, state, selection):
        poisoned = dict(state)
        target = selection.fc_names[0]
        poisoned[target] = np.full_like(
            np.asarray(poisoned[target], dtype=np.float64), 0.125
        )
        quantized = quantize_spec(spec, poisoned, selection, validation="repair")
        np.testing.assert_array_equal(
            quantized.quantized[target].dequantize(np.float64), poisoned[target]
        )


@pytest.mark.parametrize("spec", SPECS)
class TestFaultPolicies:
    def test_on_error_fail_propagates_injected_fault(self, spec, state, selection):
        target = selection.fc_names[-1]
        with pytest.raises(InjectedFault):
            quantize_spec(
                spec, state, selection,
                on_error="fail", fault_injector=Fault("raise", target=target),
            )

    def test_on_error_fp32_fallback_degrades_one_layer(self, spec, state, selection):
        target = selection.fc_names[-1]
        quantized = quantize_spec(
            spec, state, selection,
            on_error="fp32-fallback", fault_injector=Fault("raise", target=target),
        )
        assert target not in quantized.quantized
        assert target in quantized.fp32
        np.testing.assert_array_equal(
            quantized.fp32[target], np.asarray(state[target])
        )
        failures = {f.name: f for f in quantized.report.failures}
        assert failures[target].action == "fp32-fallback"

    def test_on_error_skip_drops_only_the_failing_layer(self, spec, state, selection):
        target = selection.fc_names[-1]
        quantized = quantize_spec(
            spec, state, selection,
            on_error="skip", fault_injector=Fault("raise", target=target),
        )
        assert target not in quantized.quantized
        assert target not in quantized.fp32
        survivors = set(selection.fc_names) - {target}
        assert survivors <= set(quantized.quantized)
        failures = {f.name: f for f in quantized.report.failures}
        assert failures[target].action == "skip" and failures[target].dropped


class TestDurability:
    def test_zoo_method_resumes_byte_identically(self, state, selection, tmp_path):
        # Q-BERT gives its embeddings their own tensor method, so the job's
        # fingerprint carries per-layer method overrides.
        spec = "qbert-3bit"
        plain = archive_bytes(quantize_spec(spec, state, selection), tmp_path / "a.npz")
        job_dir = tmp_path / "job"
        target = selection.fc_names[len(selection.fc_names) // 2]
        with pytest.raises(InjectedFault):
            quantize_spec(
                spec, state, selection,
                fault_injector=Fault("raise", target=target), job=DurableJob(job_dir),
            )
        resumed = quantize_spec(
            spec, state, selection, job=DurableJob(job_dir, resume=True)
        )
        assert resumed.report.resumed_layers > 0
        assert archive_bytes(resumed, tmp_path / "b.npz") == plain
