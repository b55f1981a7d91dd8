"""Tests for composite differentiable ops."""

import math
import time

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
        np.testing.assert_allclose(F.gelu(Tensor(1.0)).data, 0.8412, atol=1e-3)  # 0-d

    def test_gradient(self, rng):
        assert_autograd_matches(lambda t: F.gelu(t).sum(), rng.normal(size=8), atol=1e-5)

    def test_monotone_for_large_inputs(self):
        x = np.linspace(1, 5, 20)
        out = F.gelu(Tensor(x)).data
        assert np.all(np.diff(out) > 0)

    @pytest.mark.parametrize("scale", [0.01, 0.1, 1.0, 10.0, 100.0])
    def test_within_eps_of_the_pow_form(self, rng, scale):
        """Cubing by multiplication instead of ``x**3`` moves the output by
        at most a few ulps of the input."""
        x = rng.normal(scale=scale, size=20_000)
        inner = math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)
        reference = 0.5 * x * (1.0 + np.tanh(inner))
        out = F.gelu(Tensor(x)).data
        assert np.all(np.abs(out - reference) <= 4 * np.finfo(float).eps * np.abs(x))

    def test_costs_a_few_tanh(self, rng):
        """GELU on a BERT-shaped, mixed-sign activation stays within 15x one
        ``np.tanh`` of it (``x**3`` made it ~40x: numpy's pow is a slow
        scalar loop for negative bases)."""
        x = rng.normal(size=(8, 32, 128))
        t = Tensor(x)
        gelu_s, tanh_s = [], []
        for _ in range(20):
            start = time.perf_counter()
            F.gelu(t)
            middle = time.perf_counter()
            np.tanh(x)
            gelu_s.append(middle - start)
            tanh_s.append(time.perf_counter() - middle)
        assert min(gelu_s) <= 15 * min(tanh_s)


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

    def test_equals_the_two_pass_var_form_exactly(self, rng):
        """Centring once gives np.var's numbers bit for bit: the output and
        all three gradients, over random shapes, offsets and scales."""
        for _ in range(50):
            shape = tuple(rng.integers(1, 5, size=rng.integers(0, 3))) + (
                int(rng.integers(1, 65)),)
            data = rng.normal(rng.normal(scale=100.0), 10.0 ** rng.uniform(-3, 3), shape)
            n = shape[-1]
            w, b, upstream = rng.normal(1.0, 0.1, n), rng.normal(size=n), rng.normal(size=shape)
            x = Tensor(data, requires_grad=True)
            weight, bias = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
            out = F.layer_norm(x, weight, bias)
            (out * Tensor(upstream)).sum().backward()

            mu = data.mean(axis=-1, keepdims=True)
            inv_std = 1.0 / np.sqrt(data.var(axis=-1, keepdims=True) + 1e-12)
            x_hat = (data - mu) * inv_std
            g = upstream * w
            dx = inv_std * (g - g.mean(axis=-1, keepdims=True)
                            - x_hat * (g * x_hat).mean(axis=-1, keepdims=True))
            assert np.array_equal(out.data, x_hat * w + b)
            assert np.array_equal(weight.grad, (upstream * x_hat).reshape(-1, n).sum(axis=0))
            assert np.array_equal(bias.grad, upstream.reshape(-1, n).sum(axis=0))
            assert np.array_equal(x.grad, dx)


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
