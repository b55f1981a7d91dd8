"""Tests for whole-model quantization."""

import numpy as np
import pytest

from repro.core.model_quantizer import (
    quantize_model,
    quantize_state_dict,
    select_parameters,
)
from repro.core.policy import mixed_precision_policy
from repro.errors import QuantizationError
from repro.models.bert import BertModel
from repro.models.heads import BertForSequenceClassification
from repro.nn.layers import Linear
from repro.nn.module import Module
from tests.conftest import MICRO_CONFIG


@pytest.fixture(scope="module")
def model():
    return BertForSequenceClassification(MICRO_CONFIG, num_labels=3, rng=0)


class TestSelectParameters:
    def test_bare_bert(self):
        bert = BertModel(MICRO_CONFIG, rng=0)
        selection = select_parameters(bert)
        assert len(selection.fc_names) == MICRO_CONFIG.num_fc_layers
        assert len(selection.embedding_names) == 3

    def test_head_wrapped_bert_prefixed(self, model):
        selection = select_parameters(model)
        assert all(name.startswith("bert.") for name in selection.fc_names)
        state = model.state_dict()
        for name in selection.fc_names + selection.embedding_names:
            assert name in state

    def test_head_parameters_excluded(self, model):
        selection = select_parameters(model)
        assert not any("classifier" in name for name in selection.fc_names)

    def test_non_bert_model_rejected(self):
        class Plain(Module):
            def __init__(self):
                super().__init__()
                self.fc = Linear(4, 4, rng=0)

        with pytest.raises(QuantizationError):
            select_parameters(Plain())


class TestQuantizeModel:
    def test_quantizes_fc_and_embeddings(self, model):
        quantized = quantize_model(model, weight_bits=3, embedding_bits=4)
        selection = select_parameters(model)
        assert set(quantized.quantized) == set(
            selection.fc_names + selection.embedding_names
        )

    def test_embedding_bits_none_leaves_embeddings(self, model):
        quantized = quantize_model(model, weight_bits=3, embedding_bits=None)
        assert not any("embeddings" in name for name in quantized.quantized)
        assert "bert.embeddings.word_embeddings.weight" in quantized.fp32

    def test_embedding_only_scenario(self, model):
        quantized = quantize_model(
            model, weight_bits=3, embedding_bits=4, quantize_weights=False
        )
        assert all("embeddings" in name for name in quantized.quantized)

    def test_state_dict_complete(self, model):
        quantized = quantize_model(model, weight_bits=3, embedding_bits=4)
        assert set(quantized.state_dict()) == set(model.state_dict())

    def test_apply_to_round_trips(self, model):
        quantized = quantize_model(model, weight_bits=4, embedding_bits=4)
        probe = BertForSequenceClassification(MICRO_CONFIG, num_labels=3, rng=99)
        quantized.apply_to(probe)
        state = probe.state_dict()
        # Non-quantized params are identical to the source model.
        np.testing.assert_array_equal(
            state["classifier.weight"], model.state_dict()["classifier.weight"]
        )

    def test_original_model_untouched(self, model):
        before = model.state_dict()
        quantize_model(model, weight_bits=2, embedding_bits=2)
        after = model.state_dict()
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    def test_compression_ratios_ordering(self, model):
        q3 = quantize_model(model, weight_bits=3, embedding_bits=4)
        q4 = quantize_model(model, weight_bits=4, embedding_bits=4)
        assert q3.weight_compression_ratio() > q4.weight_compression_ratio()
        # Micro layers carry relatively more table overhead than real BERT.
        assert q3.weight_compression_ratio() > 5.0

    def test_mixed_policy_applied(self, model):
        policy = mixed_precision_policy(1, sensitive_bits=4, default_bits=3)
        quantized = quantize_model(model, weight_bits=policy, embedding_bits=None)
        assert quantized.quantized["bert.encoder.0.attention.value.weight"].bits == 4
        assert quantized.quantized["bert.encoder.1.attention.value.weight"].bits == 3

    def test_outlier_fraction_small(self, model):
        quantized = quantize_model(model, weight_bits=3, embedding_bits=4)
        assert 0.0 < quantized.outlier_fraction() < 0.02

    def test_iterations_recorded(self, model):
        quantized = quantize_model(model, weight_bits=3, embedding_bits=None)
        assert set(quantized.iterations) == set(quantized.quantized)
        assert all(1 <= it <= 50 for it in quantized.iterations.values())

    def test_backend_accepts_only_thread(self, model, tmp_path):
        """``backend="thread"`` names the one backend and changes no byte;
        any other value is refused before a layer runs."""
        from repro.core.serialization import save_quantized_model

        archives = []
        for backend in (None, "thread"):
            path = tmp_path / f"{backend}.npz"
            save_quantized_model(
                quantize_model(model, embedding_bits=4, workers=2, backend=backend), path
            )
            archives.append(path.read_bytes())
        assert archives[0] == archives[1]
        for backend in ("process", "", "THREAD"):
            with pytest.raises(QuantizationError, match="backend"):
                quantize_model(model, backend=backend)


class TestQuantizeStateDict:
    def test_missing_tensor_rejected(self):
        with pytest.raises(QuantizationError, match="missing"):
            quantize_state_dict({}, fc_names=("absent",))

    def test_passthrough_params_copied(self, model, rng):
        state = model.state_dict()
        selection = select_parameters(model)
        quantized = quantize_state_dict(
            state, fc_names=selection.fc_names[:2], embedding_names=()
        )
        out = quantized.state_dict()
        untouched = selection.fc_names[2]
        np.testing.assert_array_equal(out[untouched], state[untouched])

    def test_model_ratio_covers_weights_and_embeddings(self, model):
        quantized = quantize_model(model, weight_bits=3, embedding_bits=4)
        weights_only = quantized.weight_compression_ratio()
        embeddings_only = quantized.embedding_compression_ratio()
        combined = quantized.model_compression_ratio()
        assert min(weights_only, embeddings_only) <= combined <= max(
            weights_only, embeddings_only
        )
