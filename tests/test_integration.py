"""End-to-end integration tests: the paper's full workflow at micro scale.

fine-tune -> freeze -> quantize -> decode -> re-evaluate, across tasks and
quantization methods, all through the public API.
"""

import numpy as np
import pytest

from repro.core import mixed_precision_policy, quantize_model, select_parameters
from repro.data import generate_mnli
from repro.models import attach_quantized_linears, build_model
from repro.quant import Q8BertQuantizer, QBertQuantizer, build_quantizer
from repro.training import Trainer, evaluate
from tests.conftest import MICRO_CONFIG


@pytest.fixture(scope="module")
def finetuned():
    splits = generate_mnli(num_train=192, num_eval=96, rng=0)
    model = build_model(MICRO_CONFIG, task="classification", num_labels=3, rng=1)
    Trainer(model, lr=2e-3, batch_size=16, rng=2).fit(splits.train, epochs=4)
    return model, splits


class TestGoboPipeline:
    def test_high_bit_quantization_tracks_baseline(self, finetuned):
        model, splits = finetuned
        baseline = evaluate(model, splits.eval)
        quantized = quantize_model(model, weight_bits=6, embedding_bits=6)
        probe = build_model(MICRO_CONFIG, task="classification", num_labels=3, rng=9)
        quantized.apply_to(probe)
        assert abs(evaluate(probe, splits.eval) - baseline) <= 0.1

    def test_two_bit_quantization_degrades(self, finetuned):
        model, splits = finetuned
        baseline = evaluate(model, splits.eval)
        quantized = quantize_model(model, weight_bits=2, embedding_bits=2)
        probe = build_model(MICRO_CONFIG, task="classification", num_labels=3, rng=9)
        quantized.apply_to(probe)
        degraded = evaluate(probe, splits.eval)
        assert degraded <= baseline

    def test_decode_is_plug_in_compatible(self, finetuned):
        """The decoded state dict drops into a fresh model of the same
        architecture with no shape or name changes."""
        model, _ = finetuned
        quantized = quantize_model(model, weight_bits=3, embedding_bits=4)
        state = quantized.state_dict()
        assert set(state) == set(model.state_dict())
        probe = build_model(MICRO_CONFIG, task="classification", num_labels=3, rng=9)
        probe.load_state_dict(state)

    def test_mixed_policy_pipeline(self, finetuned):
        model, splits = finetuned
        policy = mixed_precision_policy(1, sensitive_bits=4, default_bits=3)
        quantized = quantize_model(model, weight_bits=policy, embedding_bits=None)
        probe = build_model(MICRO_CONFIG, task="classification", num_labels=3, rng=9)
        quantized.apply_to(probe)
        assert 0.0 <= evaluate(probe, splits.eval) <= 1.0


class TestBaselinePipelines:
    @pytest.mark.parametrize("spec", ["q8bert", "qbert-3bit", "gobo-4bit"])
    def test_registry_quantizers_end_to_end(self, finetuned, spec):
        model, splits = finetuned
        selection = select_parameters(model)
        quantized = build_quantizer(spec).quantize(
            model.state_dict(), selection.fc_names, selection.embedding_names
        )
        probe = build_model(MICRO_CONFIG, task="classification", num_labels=3, rng=9)
        attach_quantized_linears(probe, quantized)
        assert 0.0 <= evaluate(probe, splits.eval) <= 1.0
        ratio = quantized.model_compression_ratio()
        if spec == "gobo-4bit":
            assert ratio > 2.0
        elif spec == "q8bert":
            # One int8 code per weight, but every micro tensor also stores
            # its 256-entry table (1 KiB): 1.13x here, 4x at BERT scale.
            assert ratio > 1.0
        else:
            # Q-BERT's 128 dictionaries per layer swamp micro-sized layers —
            # exactly the per-group overhead Figure 3's curve quantifies and
            # GOBO's single-table-per-layer design avoids.
            assert ratio < 2.0

    def test_qbert_compresses_when_groups_fit(self, finetuned):
        model, _ = finetuned
        selection = select_parameters(model)
        quantized = QBertQuantizer(weight_bits=3, num_groups=2).quantize(
            model.state_dict(), selection.fc_names, selection.embedding_names
        )
        assert quantized.model_compression_ratio() > 2.0

    def test_q8bert_less_compression_than_gobo(self, finetuned):
        model, _ = finetuned
        selection = select_parameters(model)
        names = (model.state_dict(), selection.fc_names, selection.embedding_names)
        q8 = Q8BertQuantizer().quantize(*names)
        gobo = build_quantizer("gobo-3bit").quantize(*names)
        assert gobo.model_compression_ratio() > q8.model_compression_ratio()

    def test_qbert_reconstruction_differs_from_q8bert(self, finetuned):
        model, _ = finetuned
        state = model.state_dict()
        name = select_parameters(model).fc_names[0]
        qb = QBertQuantizer(weight_bits=3, num_groups=4).quantize(state, (name,))
        q8 = Q8BertQuantizer().quantize(state, (name,))
        assert not np.array_equal(
            qb.quantized[name].dequantize(), q8.quantized[name].dequantize()
        )
