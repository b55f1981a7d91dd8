"""Tests for the BERT encoder layer."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn.tensor import Tensor
from repro.nn.transformer import BertEncoderLayer


@pytest.fixture
def layer():
    return BertEncoderLayer(hidden_size=16, intermediate_size=32, num_heads=4, rng=0)


class TestStructure:
    def test_six_fc_weight_matrices(self, layer):
        # Table I: 6 FC layers per BERT layer.
        fc_weights = [
            name
            for name, param in layer.named_parameters()
            if name.endswith("weight") and param.ndim == 2
        ]
        assert len(fc_weights) == 6

    def test_fc_dimensions(self, layer):
        params = dict(layer.named_parameters())
        assert params["attention.query.weight"].shape == (16, 16)
        assert params["intermediate.weight"].shape == (32, 16)
        assert params["output.weight"].shape == (16, 32)


class TestForward:
    def test_shape_preserved(self, layer, rng):
        out = layer(Tensor(rng.normal(size=(2, 9, 16))))
        assert out.shape == (2, 9, 16)

    def test_output_layer_normalized(self, layer, rng):
        out = layer(Tensor(rng.normal(size=(2, 9, 16)))).data
        # Post-LN layout: means ~0 modulo the learned (initially 0) bias.
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros((2, 9)), atol=1e-9)

    def test_wrong_rank_rejected(self, layer, rng):
        with pytest.raises(ShapeError):
            layer(Tensor(rng.normal(size=(9, 16))))

    def test_mask_accepted(self, layer, rng):
        mask = np.ones((2, 9))
        mask[:, 5:] = 0
        out = layer(Tensor(rng.normal(size=(2, 9, 16))), attention_mask=mask)
        assert np.isfinite(out.data).all()

    def test_gradients_reach_every_parameter(self, layer, rng):
        layer(Tensor(rng.normal(size=(1, 5, 16)))).sum().backward()
        for name, param in layer.named_parameters():
            assert param.grad is not None, name

    def test_deterministic_per_seed(self, rng):
        a = BertEncoderLayer(16, 32, 4, rng=7)
        b = BertEncoderLayer(16, 32, 4, rng=7)
        x = rng.normal(size=(1, 4, 16))
        np.testing.assert_array_equal(a(Tensor(x)).data, b(Tensor(x)).data)
