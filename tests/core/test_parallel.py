"""Tests for the layer-parallel quantization engine."""

import os
from concurrent.futures import Future

import numpy as np
import pytest

from repro.core import parallel
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
from repro.testing.faults import Fault, InjectedFault, compose_injectors
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

    def test_zero_means_the_cpus_this_process_may_use(self, monkeypatch):
        """A process pinned to one CPU (``taskset -c 0``) gets one worker,
        however many the machine has, from the argument or the variable."""
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert resolve("workers", 0) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 5, 6}, raising=False)
        assert resolve("workers", 0) == 3
        monkeypatch.setenv(WORKERS_ENV, "0")
        assert resolve("workers") == 3

    def test_zero_without_affinity_counts_cpus(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert resolve("workers", 0) == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve("workers", 0) == 1

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
        # The pool takes the largest layer first, so it runs out of job order.
        assert state[jobs[0].name].size < max(state[job.name].size for job in jobs)
        serial, serial_iters, _ = quantize_layers(state, jobs, workers=1)
        for workers in (2, 3, 4):
            parallel, parallel_iters, report = quantize_layers(state, jobs, workers=workers)
            assert serial_iters == parallel_iters
            assert list(serial) == list(parallel)  # job order preserved
            assert [record.name for record in report.layers] == list(serial)
            for name in serial:
                assert serial[name].packed_codes == parallel[name].packed_codes
                np.testing.assert_array_equal(serial[name].centroids, parallel[name].centroids)
                np.testing.assert_array_equal(
                    serial[name].outlier_values, parallel[name].outlier_values
                )

    def test_pool_takes_the_largest_layers_first(self, monkeypatch):
        """Jobs reach the pool by descending element count; equal sizes keep
        job order, and the serial loop keeps job order."""
        seen = []

        class RecordingPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, item):
                seen.append(item[1].name)
                future = Future()
                future.set_result(fn(item))
                return future

        monkeypatch.setattr(parallel, "ThreadPoolExecutor", RecordingPool)
        gen = np.random.default_rng(3)
        sizes = {"a": (4, 4), "b": (9, 8), "c": (6, 6), "d": (8, 9), "e": (12, 12)}
        state = {name: gen.normal(0, 0.05, size) for name, size in sizes.items()}
        jobs = [LayerJob(name, 2) for name in sizes]
        quantized, _, _ = quantize_layers(state, jobs, workers=2)
        assert seen == ["e", "b", "d", "c", "a"]
        assert list(quantized) == ["a", "b", "c", "d", "e"]
        seen.clear()
        quantize_layers(state, jobs, workers=1)
        assert seen == []

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_two_failures_raise_the_first_in_job_order(self, workers):
        """With two failing layers, every worker count raises the error of
        the first one in job order, not of the largest one the pool takes
        first."""
        gen = np.random.default_rng(5)
        sizes = {"a": (4, 4), "b": (9, 8), "c": (6, 6), "e": (12, 12)}
        state = {name: gen.normal(0, 0.05, size) for name, size in sizes.items()}
        jobs = [LayerJob(name, 2) for name in sizes]
        faults = compose_injectors(Fault("raise", target="a"), Fault("raise", target="e"))
        with pytest.raises(InjectedFault, match="'a'"):
            quantize_layers(state, jobs, workers=workers, fault_injector=faults)

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
