"""Tests for the Q-BERT-like group-wise dictionary baseline."""

import hashlib

import numpy as np
import pytest

from repro.core.clustering import kmeans_cluster
from repro.core.model_quantizer import select_parameters
from repro.core.quantizer import quantize_tensor
from repro.core.serialization import save_quantized_model
from repro.errors import QuantizationError
from repro.jobs.runner import DurableJob, job_status
from repro.models.heads import BertForSequenceClassification
from repro.quant import Q8BertQuantizer, build_quantizer
from repro.quant.qbert import QBertQuantizer
from repro.utils.bitpack import packed_nbytes
from repro.utils.rng import derive_rng
from tests.conftest import MICRO_CONFIG


def _group_quantize(values, bits, num_groups):
    """One tensor through Q-BERT's engine path."""
    quantizer = QBertQuantizer(weight_bits=bits, num_groups=num_groups)
    return quantizer.quantize({"w": values}, ("w",)).quantized["w"]


class TestQuantizeGroupwise:
    def test_reconstruction_shape(self, rng):
        values = rng.normal(size=(40, 25))
        tensor = _group_quantize(values, bits=3, num_groups=8)
        assert tensor.dequantize().shape == (40, 25)

    def test_more_groups_lower_error(self, rng):
        # A piecewise-shifting distribution benefits from local dictionaries.
        values = np.concatenate(
            [rng.normal(loc, 0.01, 2500) for loc in (-0.3, -0.1, 0.1, 0.3)]
        )
        r1 = _group_quantize(values, bits=2, num_groups=1).dequantize(dtype=np.float64)
        r8 = _group_quantize(values, bits=2, num_groups=8).dequantize(dtype=np.float64)
        assert np.abs(r8 - values).mean() < np.abs(r1 - values).mean()

    def test_byte_cost_includes_dictionaries(self, rng):
        report = _group_quantize(rng.normal(size=1024), bits=3, num_groups=4).storage()
        # The archive joins the 4 dictionaries of 8 FP32 centroids into one
        # table of 32, so every code widens from 3 to 5 bits.
        assert report.table_bytes == 4 * 8 * 4
        assert report.compressed_bytes == packed_nbytes(1024, 5) + 4 * 8 * 4

    def test_more_values_than_groups_not_required(self, rng):
        tensor = _group_quantize(rng.normal(size=5), bits=2, num_groups=100)
        assert tensor.dequantize().shape == (5,)
        assert tensor.centroids.size == 5 * 4  # one group per value

    def test_invalid_groups_rejected(self, rng):
        # The tensor method checks the group count it is handed, too.
        with pytest.raises(QuantizationError, match="num_groups"):
            quantize_tensor(rng.normal(size=10), bits=3, method="qbert-group", aux=np.array(0))

    def test_empty_rejected(self):
        with pytest.raises(QuantizationError):
            _group_quantize(np.array([]), bits=3, num_groups=4)


class TestQBertQuantizer:
    @pytest.fixture(scope="class")
    def model(self):
        return BertForSequenceClassification(MICRO_CONFIG, num_labels=3, rng=0)

    @pytest.fixture(scope="class")
    def quantized(self, model):
        selection = select_parameters(model)
        quantizer = QBertQuantizer(weight_bits=3, num_groups=8)
        return quantizer.quantize(
            model.state_dict(), selection.fc_names, selection.embedding_names
        )

    def test_embeddings_quantized_at_8_bits(self, model, quantized):
        state = model.state_dict()
        name = "bert.embeddings.word_embeddings.weight"
        error = np.abs(quantized.state_dict()[name] - state[name]).max()
        # 8-bit symmetric rounding error is half a scale step.
        scale = np.abs(state[name]).max() / 127
        assert error <= scale / 2 + 1e-12

    def test_compression_ratio_between_q8_and_gobo(self, model, quantized):
        # On micro layers every 8-bit table (1 KiB) and every group
        # dictionary weighs heavily: this model stores 1.13x (q8bert),
        # 2.19x (Q-BERT, 8 groups) and 7.73x (gobo-3bit).
        selection = select_parameters(model)
        names = (model.state_dict(), selection.fc_names, selection.embedding_names)
        q8 = Q8BertQuantizer().quantize(*names).model_compression_ratio()
        gobo = build_quantizer("gobo-3bit").quantize(*names).model_compression_ratio()
        assert q8 < quantized.model_compression_ratio() < gobo

    def test_reconstructed_state_loads(self, quantized):
        probe = BertForSequenceClassification(MICRO_CONFIG, num_labels=3, rng=1)
        probe.load_state_dict(quantized.state_dict())

    def test_invalid_bits(self):
        with pytest.raises(QuantizationError):
            QBertQuantizer(weight_bits=0)

    @pytest.mark.parametrize("num_groups", [0, -1, 2.5, True])
    def test_invalid_group_count(self, num_groups):
        with pytest.raises(QuantizationError, match="num_groups"):
            QBertQuantizer(num_groups=num_groups)


class TestGroupCountReachesTheEngine:
    """``quantize`` gives each of ``num_groups`` contiguous groups the
    K-Means dictionary of its own values."""

    @staticmethod
    def _state():
        rng = derive_rng(4242, "qbert-groups")
        return {
            "fc.weight": rng.normal(0.0, 0.04, size=(32, 48)),
            "emb.weight": rng.normal(0.0, 0.05, size=(20, 16)),
        }

    @pytest.mark.parametrize("num_groups", [1, 2, 4, 128])
    def test_quantize_matches_per_group_kmeans(self, num_groups):
        weights = np.random.default_rng(5).normal(0.0, 0.05, size=(64, 64))
        tensor = _group_quantize(weights, bits=3, num_groups=num_groups)
        flat = weights.ravel()
        bounds = np.linspace(0, flat.size, num_groups + 1).round().astype(np.int64)
        expected = np.empty_like(flat)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            result = kmeans_cluster(flat[lo:hi], 3)
            expected[lo:hi] = result.centroids[result.assignment]
        assert tensor.centroids.size == num_groups * 2**3
        np.testing.assert_array_equal(
            tensor.dequantize(dtype=np.float64), expected.reshape(weights.shape)
        )

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
