"""Tests for the layer-parallel quantization engine."""

import os

import numpy as np
import pytest

from repro.core.model_quantizer import quantize_model, quantize_state_dict, select_parameters
from repro.core.parallel import (
    LayerJob,
    QuantizationReport,
    WORKERS_ENV,
    quantize_layers,
    resolve,
)
from repro.errors import QuantizationError
from repro.models.heads import BertForSequenceClassification
from tests.conftest import MICRO_CONFIG


@pytest.fixture(scope="module")
def model():
    return BertForSequenceClassification(MICRO_CONFIG, num_labels=3, rng=0)


@pytest.fixture(scope="module")
def state_and_selection(model):
    return model.state_dict(), select_parameters(model)


class TestWorkerResolution:
    def test_explicit_count(self):
        assert resolve("workers", 3) == 3

    def test_one_is_serial(self):
        assert resolve("workers", 1) == 1

    def test_zero_means_all_cores(self):
        assert resolve("workers", 0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(QuantizationError):
            resolve("workers", -1)

    def test_non_int_rejected(self):
        with pytest.raises(QuantizationError):
            resolve("workers", 2.5)

    def test_none_defaults_to_one(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve("workers", None) == 1

    def test_none_reads_environment(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve("workers", None) == 5
        assert resolve("workers") == 5

    def test_bad_environment_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(QuantizationError):
            resolve("workers")


class TestQuantizeLayers:
    def test_parallel_bit_identical_to_serial(self, state_and_selection):
        state, selection = state_and_selection
        jobs = [LayerJob(name, 3) for name in selection.fc_names]
        serial, serial_iters, _ = quantize_layers(state, jobs, workers=1)
        parallel, parallel_iters, _ = quantize_layers(state, jobs, workers=3)
        assert serial_iters == parallel_iters
        assert list(serial) == list(parallel)  # job order preserved
        for name in serial:
            assert serial[name].packed_codes == parallel[name].packed_codes
            np.testing.assert_array_equal(serial[name].centroids, parallel[name].centroids)
            np.testing.assert_array_equal(
                serial[name].outlier_values, parallel[name].outlier_values
            )

    def test_missing_tensor_rejected(self, state_and_selection):
        state, _ = state_and_selection
        with pytest.raises(QuantizationError, match="missing"):
            quantize_layers(state, [LayerJob("absent", 3)])

    def test_empty_jobs(self, state_and_selection):
        state, _ = state_and_selection
        quantized, iterations, report = quantize_layers(state, [], workers=4)
        assert quantized == {} and iterations == {}
        assert report.layers == []
        assert report.compression_ratio == float("inf")

    def test_report_records_every_layer(self, state_and_selection):
        state, selection = state_and_selection
        jobs = [LayerJob(name, 3) for name in selection.fc_names[:4]]
        quantized, iterations, report = quantize_layers(state, jobs, workers=2)
        assert [r.name for r in report.layers] == [job.name for job in jobs]
        for record in report.layers:
            tensor = quantized[record.name]
            assert record.seconds > 0
            assert record.bits == 3
            assert record.iterations == iterations[record.name]
            assert record.outlier_fraction == tensor.outlier_fraction
            assert record.compressed_bytes == tensor.storage().compressed_bytes
            assert record.original_bytes == 4 * tensor.total_count
        assert report.wall_seconds > 0
        assert report.layer_seconds == pytest.approx(
            sum(r.seconds for r in report.layers)
        )


class TestQuantizedModelIntegration:
    def test_state_dicts_bit_identical_across_workers(self, model):
        serial = quantize_model(model, weight_bits=3, embedding_bits=4, workers=1)
        parallel = quantize_model(model, weight_bits=3, embedding_bits=4, workers=4)
        serial_state, parallel_state = serial.state_dict(), parallel.state_dict()
        assert set(serial_state) == set(parallel_state)
        for name in serial_state:
            np.testing.assert_array_equal(serial_state[name], parallel_state[name])

    def test_report_attached(self, model):
        quantized = quantize_model(model, weight_bits=3, embedding_bits=4, workers=2)
        assert isinstance(quantized.report, QuantizationReport)
        assert quantized.report.workers == 2
        assert set(r.name for r in quantized.report.layers) == set(quantized.quantized)

    def test_report_respects_policy_bits(self, model):
        quantized = quantize_model(model, weight_bits=2, embedding_bits=4, workers=1)
        by_name = {r.name: r for r in quantized.report.layers}
        for name in quantized.fc_names:
            assert by_name[name].bits == 2
        for name in quantized.embedding_names:
            assert by_name[name].bits == 4

    def test_workers_none_uses_environment(self, model, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "2")
        quantized = quantize_model(model, weight_bits=3, embedding_bits=None, workers=None)
        assert quantized.report.workers == 2

    def test_state_dict_ignores_report(self, state_and_selection):
        state, selection = state_and_selection
        quantized = quantize_state_dict(
            state, fc_names=selection.fc_names[:2], embedding_names=(), workers=2
        )
        assert set(quantized.state_dict()) == set(state)

    def test_render_mentions_layers_and_totals(self, model):
        quantized = quantize_model(model, weight_bits=3, embedding_bits=None, workers=1)
        text = quantized.report.render()
        assert "Per-layer quantization report" in text
        for name in quantized.fc_names:
            assert name in text
        assert "workers=1" in text and "wall=" in text
