"""Tests for composite differentiable ops."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from tests.conftest import assert_autograd_matches


class TestGelu:
    def test_matches_reference_points(self):
        out = F.gelu(Tensor(np.array([0.0, 1.0, -1.0])))
        np.testing.assert_allclose(out.data, [0.0, 0.8412, -0.1588], atol=1e-3)

    def test_gradient(self, rng):
        assert_autograd_matches(lambda t: F.gelu(t).sum(), rng.normal(size=8), atol=1e-5)

    def test_monotone_for_large_inputs(self):
        x = np.linspace(1, 5, 20)
        out = F.gelu(Tensor(x)).data
        assert np.all(np.diff(out) > 0)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        out = F.softmax(Tensor(rng.normal(size=(4, 7))))
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4))

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(2, 5))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b)

    def test_overflow_safe(self):
        out = F.softmax(Tensor(np.array([[1000.0, 0.0]])))
        assert np.isfinite(out.data).all()

    def test_gradient(self, rng):
        x = rng.normal(size=(2, 4))
        weights = Tensor(rng.normal(size=(2, 4)))
        assert_autograd_matches(lambda t: (F.softmax(t) * weights).sum(), x)


class TestLogSoftmax:
    def test_matches_log_of_softmax(self, rng):
        x = rng.normal(size=(3, 5))
        np.testing.assert_allclose(
            F.log_softmax(Tensor(x)).data, np.log(F.softmax(Tensor(x)).data)
        )

    def test_gradient(self, rng):
        x = rng.normal(size=(2, 4))
        weights = Tensor(rng.normal(size=(2, 4)))
        assert_autograd_matches(lambda t: (F.log_softmax(t) * weights).sum(), x)


class TestLayerNorm:
    def _params(self, dim, rng):
        return Tensor(rng.normal(1.0, 0.1, dim)), Tensor(rng.normal(0.0, 0.1, dim))

    def test_normalizes(self, rng):
        x = Tensor(rng.normal(3.0, 2.0, size=(4, 8)))
        weight = Tensor(np.ones(8))
        bias = Tensor(np.zeros(8))
        out = F.layer_norm(x, weight, bias).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(4), atol=1e-9)
        np.testing.assert_allclose(out.std(axis=-1), np.ones(4), atol=1e-4)

    def test_input_gradient(self, rng):
        x = rng.normal(size=(2, 6))
        weight, bias = self._params(6, rng)
        assert_autograd_matches(
            lambda t: (F.layer_norm(t, weight, bias) ** 2).sum(), x, atol=1e-5
        )

    def test_param_gradients(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        weight = Tensor(rng.normal(1.0, 0.1, 4), requires_grad=True)
        bias = Tensor(rng.normal(size=4), requires_grad=True)
        (F.layer_norm(x, weight, bias) ** 2).sum().backward()
        assert weight.grad is not None and bias.grad is not None

    def test_shape_mismatch_rejected(self, rng):
        x = Tensor(rng.normal(size=(2, 6)))
        with pytest.raises(ShapeError):
            F.layer_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(6)))


class TestEmbeddingLookup:
    def test_gathers_rows(self, rng):
        table = Tensor(rng.normal(size=(10, 4)))
        ids = np.array([[1, 3], [0, 1]])
        out = F.embedding_lookup(table, ids)
        np.testing.assert_array_equal(out.data, table.data[ids])

    def test_gradient_accumulates_duplicates(self, rng):
        table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        F.embedding_lookup(table, np.array([2, 2, 4])).sum().backward()
        np.testing.assert_allclose(table.grad[2], np.full(3, 2.0))
        np.testing.assert_allclose(table.grad[4], np.ones(3))
        np.testing.assert_allclose(table.grad[0], np.zeros(3))

    def test_out_of_range_rejected(self, rng):
        table = Tensor(rng.normal(size=(5, 3)))
        with pytest.raises(IndexError):
            F.embedding_lookup(table, np.array([5]))

    def test_float_ids_rejected(self, rng):
        table = Tensor(rng.normal(size=(5, 3)))
        with pytest.raises(TypeError):
            F.embedding_lookup(table, np.array([1.0]))


class TestDropout:
    def test_identity_in_eval(self, rng):
        x = Tensor(rng.normal(size=(3, 3)))
        out = F.dropout(x, 0.5, rng, training=False)
        assert out is x

    def test_identity_at_zero_rate(self, rng):
        x = Tensor(rng.normal(size=(3, 3)))
        assert F.dropout(x, 0.0, rng, training=True) is x

    def test_scaling_preserves_expectation(self, rng):
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.3, rng, training=True)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_gradient_masked(self, rng):
        x = Tensor(np.ones(1000), requires_grad=True)
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=True)
        out.sum().backward()
        zeros = out.data == 0
        assert np.all(x.grad[zeros] == 0) and np.all(x.grad[~zeros] == 2.0)

    def test_invalid_rate_rejected(self, rng):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(2)), 1.0, rng, training=True)


class TestMaskedFill:
    def test_values(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]))
        out = F.masked_fill(x, np.array([True, False, True]), -9.0)
        np.testing.assert_array_equal(out.data, [-9.0, 2.0, -9.0])

    def test_gradient_blocked_at_mask(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        F.masked_fill(x, np.array([True, False]), 0.0).sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])
