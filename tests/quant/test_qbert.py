"""Tests for the Q-BERT-like group-wise dictionary baseline."""

import hashlib

import numpy as np
import pytest

from repro.core.model_quantizer import select_parameters
from repro.core.serialization import save_quantized_model
from repro.errors import QuantizationError
from repro.jobs.runner import DurableJob, job_status
from repro.models.heads import BertForSequenceClassification
from repro.quant.qbert import QBertQuantizer, quantize_groupwise
from repro.utils.rng import derive_rng
from tests.conftest import MICRO_CONFIG


class TestQuantizeGroupwise:
    def test_reconstruction_shape(self, rng):
        values = rng.normal(size=(40, 25))
        reconstructed, _ = quantize_groupwise(values, bits=3, num_groups=8)
        assert reconstructed.shape == (40, 25)

    def test_more_groups_lower_error(self, rng):
        # A piecewise-shifting distribution benefits from local dictionaries.
        values = np.concatenate(
            [rng.normal(loc, 0.01, 2500) for loc in (-0.3, -0.1, 0.1, 0.3)]
        )
        r1, _ = quantize_groupwise(values, bits=2, num_groups=1)
        r8, _ = quantize_groupwise(values, bits=2, num_groups=8)
        assert np.abs(r8 - values).mean() < np.abs(r1 - values).mean()

    def test_byte_cost_includes_dictionaries(self, rng):
        values = rng.normal(size=1024)
        _, nbytes = quantize_groupwise(values, bits=3, num_groups=4)
        expected = (1024 * 3 + 7) // 8 + 4 * 8 * 4
        # Per-group index packing rounds up per group.
        assert abs(nbytes - expected) <= 4

    def test_more_values_than_groups_not_required(self, rng):
        reconstructed, _ = quantize_groupwise(rng.normal(size=5), bits=2, num_groups=100)
        assert reconstructed.shape == (5,)

    def test_invalid_groups_rejected(self, rng):
        with pytest.raises(QuantizationError):
            quantize_groupwise(rng.normal(size=10), bits=3, num_groups=0)

    def test_empty_rejected(self):
        with pytest.raises(QuantizationError):
            quantize_groupwise(np.array([]), bits=3, num_groups=4)


class TestQBertQuantizer:
    @pytest.fixture(scope="class")
    def compressed(self):
        model = BertForSequenceClassification(MICRO_CONFIG, num_labels=3, rng=0)
        selection = select_parameters(model)
        quantizer = QBertQuantizer(weight_bits=3, num_groups=8)
        return model, quantizer.compress(
            model.state_dict(), selection.fc_names, selection.embedding_names
        )

    def test_embeddings_quantized_at_8_bits(self, compressed):
        model, result = compressed
        state = model.state_dict()
        name = "bert.embeddings.word_embeddings.weight"
        error = np.abs(result.tensors[name].reconstructed - state[name]).max()
        # 8-bit symmetric rounding error is half a scale step.
        scale = np.abs(state[name]).max() / 127
        assert error <= scale / 2 + 1e-12

    def test_compression_ratio_between_q8_and_gobo(self, compressed):
        # 3-bit weights + 8-bit embeddings + dictionaries. Micro layers pay
        # proportionally more dictionary overhead than real BERT (where the
        # ratio is ~7.8x), so the lower bound here is loose.
        _, result = compressed
        assert 2.5 < result.compression_ratio() < 10.7

    def test_reconstructed_state_loads(self, compressed):
        _, result = compressed
        probe = BertForSequenceClassification(MICRO_CONFIG, num_labels=3, rng=1)
        probe.load_state_dict(result.state_dict())

    def test_invalid_bits(self):
        with pytest.raises(QuantizationError):
            QBertQuantizer(weight_bits=0)

    @pytest.mark.parametrize("num_groups", [0, -1, 2.5, True])
    def test_invalid_group_count(self, num_groups):
        with pytest.raises(QuantizationError, match="num_groups"):
            QBertQuantizer(num_groups=num_groups)


class TestGroupCountReachesTheEngine:
    """``quantize`` (the engine path) and ``compress`` (native accounting)
    give the same weights for the same ``num_groups``."""

    @staticmethod
    def _state():
        rng = derive_rng(4242, "qbert-groups")
        return {
            "fc.weight": rng.normal(0.0, 0.04, size=(32, 48)),
            "emb.weight": rng.normal(0.0, 0.05, size=(20, 16)),
        }

    @pytest.mark.parametrize("num_groups", [1, 2, 4, 128])
    def test_quantize_matches_compress(self, num_groups):
        state = {"w": np.random.default_rng(5).normal(0.0, 0.05, size=(64, 64))}
        quantizer = QBertQuantizer(weight_bits=3, num_groups=num_groups)
        tensor = quantizer.quantize(state, ("w",)).quantized["w"]
        native = quantizer.compress(state, ("w",), ()).tensors["w"].reconstructed
        assert tensor.centroids.size == num_groups * 2**3
        np.testing.assert_array_equal(tensor.dequantize(dtype=np.float64), native)

    def test_default_groups_keep_archive_and_fingerprint(self, tmp_path):
        # Both digests were recorded before the group count reached the
        # engine, when every engine run used 128 groups.
        model = QBertQuantizer(weight_bits=3).quantize(
            self._state(), ("fc.weight",), ("emb.weight",),
            job=DurableJob(tmp_path / "job"),
        )
        save_quantized_model(model, tmp_path / "model.npz")
        digest = hashlib.sha256((tmp_path / "model.npz").read_bytes()).hexdigest()
        assert digest == "ed972b050dd425d2acf5a97935b13ac83e3ad3116c67b1c9e790032fe6d00ff1"
        assert job_status(tmp_path / "job").fingerprint == (
            "8633fc3696c2a96f1e49e95622ebd43d68a325e74df332347e358eccc195cbce"
        )

    def test_group_count_enters_the_fingerprint(self, tmp_path):
        fingerprints = set()
        for num_groups in (2, 4, 128):
            job_dir = tmp_path / f"job-{num_groups}"
            QBertQuantizer(num_groups=num_groups).quantize(
                self._state(), ("fc.weight",), job=DurableJob(job_dir)
            )
            fingerprints.add(job_status(job_dir).fingerprint)
        assert len(fingerprints) == 3
