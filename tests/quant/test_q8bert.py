"""Tests for the Q8BERT-like fixed-point baseline."""

import numpy as np
import pytest

from repro.errors import QuantizationError
from repro.models.heads import BertForSequenceClassification
from repro.core.model_quantizer import select_parameters
from repro.quant.q8bert import (
    Q8BertQuantizer,
    symmetric_dequantize,
    symmetric_quantize,
)
from tests.conftest import MICRO_CONFIG


class TestSymmetricQuantize:
    def test_round_trip_error_bounded(self, rng):
        values = rng.normal(0, 0.05, size=10000)
        codes, scale = symmetric_quantize(values, bits=8)
        restored = symmetric_dequantize(codes, scale)
        assert np.abs(restored - values).max() <= scale / 2 + 1e-12

    def test_codes_within_signed_range(self, rng):
        codes, _ = symmetric_quantize(rng.normal(size=1000), bits=8)
        assert codes.min() >= -128 and codes.max() <= 127

    def test_extreme_value_exactly_representable(self):
        values = np.array([-0.5, 0.25, 0.5])
        codes, scale = symmetric_quantize(values, bits=8)
        restored = symmetric_dequantize(codes, scale)
        assert restored[2] == pytest.approx(0.5)

    def test_all_zero_tensor(self):
        codes, scale = symmetric_quantize(np.zeros(10), bits=8)
        assert np.all(codes == 0) and scale == 1.0

    def test_fewer_bits_more_error(self, rng):
        values = rng.normal(size=5000)
        errors = []
        for bits in (4, 6, 8):
            codes, scale = symmetric_quantize(values, bits)
            errors.append(np.abs(symmetric_dequantize(codes, scale) - values).mean())
        assert errors[0] > errors[1] > errors[2]

    def test_empty_rejected(self):
        with pytest.raises(QuantizationError):
            symmetric_quantize(np.array([]))

    def test_invalid_bits(self):
        with pytest.raises(QuantizationError):
            symmetric_quantize(np.ones(4), bits=1)


class TestQ8BertQuantizer:
    @pytest.fixture(scope="class")
    def quantized(self):
        model = BertForSequenceClassification(MICRO_CONFIG, num_labels=3, rng=0)
        selection = select_parameters(model)
        return (
            model,
            Q8BertQuantizer().quantize(
                model.state_dict(), selection.fc_names, selection.embedding_names
            ),
        )

    def test_compression_ratio_near_4x(self):
        # One int8 code per weight plus a 256-entry table (1 KiB) per tensor:
        # 4x asymptotically.  A micro model's tensors are too small for the
        # table to vanish (they store ~1.1x), so the check uses a layer of
        # BERT-Base's hidden size.
        state = {"w": np.random.default_rng(0).normal(0.0, 0.04, size=(768, 768))}
        quantized = Q8BertQuantizer().quantize(state, ("w",))
        assert quantized.model_compression_ratio() == pytest.approx(4.0, rel=0.01)

    def test_reconstruction_close(self, quantized):
        model, result = quantized
        state = model.state_dict()
        restored = result.state_dict()
        for name in result.quantized:
            error = np.abs(restored[name] - state[name]).mean()
            assert error < 0.01, name

    def test_state_dict_loadable(self, quantized):
        model, result = quantized
        probe = BertForSequenceClassification(MICRO_CONFIG, num_labels=3, rng=1)
        probe.load_state_dict(result.state_dict())

    def test_missing_tensor_rejected(self):
        with pytest.raises(QuantizationError):
            Q8BertQuantizer().quantize({}, ("nope",), ())
