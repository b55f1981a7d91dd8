"""Autograd engine tests: every op checked against numeric gradients."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn.tensor import Tensor, as_tensor, stack
from tests.conftest import assert_autograd_matches


class TestBasics:
    def test_shape_and_size(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.shape == (2, 3) and t.size == 6 and t.ndim == 2

    def test_item_scalar(self):
        assert Tensor(np.array(3.5)).item() == 3.5

    def test_item_non_scalar_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros(3)).item()

    def test_detach_cuts_graph(self):
        t = Tensor(np.ones(3), requires_grad=True)
        d = (t * 2).detach()
        assert not d.requires_grad

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(1)).backward()

    def test_backward_needs_scalar_without_grad(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            t.backward()

    def test_as_tensor_passthrough(self):
        t = Tensor(np.ones(2))
        assert as_tensor(t) is t

    def test_as_tensor_from_list(self):
        assert as_tensor([1.0, 2.0]).shape == (2,)

    def test_repr(self):
        assert "requires_grad=True" in repr(Tensor(np.ones(1), requires_grad=True))


class TestArithmeticGradients:
    def test_add(self, rng):
        x = rng.normal(size=(3, 4))
        assert_autograd_matches(lambda t: (t + 2.0).sum(), x)

    def test_add_broadcast(self, rng):
        x = rng.normal(size=(3, 1))
        other = Tensor(rng.normal(size=(3, 4)))
        assert_autograd_matches(lambda t: (t + other).sum(), x)

    def test_mul(self, rng):
        x = rng.normal(size=(2, 5))
        other = Tensor(rng.normal(size=(2, 5)))
        assert_autograd_matches(lambda t: (t * other).sum(), x)

    def test_mul_both_require_grad(self, rng):
        a = Tensor(rng.normal(size=3), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, b.data)
        np.testing.assert_allclose(b.grad, a.data)

    def test_sub_and_neg(self, rng):
        x = rng.normal(size=4)
        assert_autograd_matches(lambda t: (3.0 - t).sum(), x)

    def test_div(self, rng):
        x = rng.normal(size=4) + 3.0
        assert_autograd_matches(lambda t: (1.0 / t).sum(), x, atol=1e-5)

    def test_div_by_tensor(self, rng):
        x = rng.normal(size=4)
        denom = Tensor(rng.normal(size=4) + 5.0)
        assert_autograd_matches(lambda t: (t / denom).sum(), x)

    def test_pow(self, rng):
        x = np.abs(rng.normal(size=4)) + 0.5
        assert_autograd_matches(lambda t: (t**3).sum(), x, atol=1e-4)

    def test_sqrt(self, rng):
        x = np.abs(rng.normal(size=4)) + 1.0
        assert_autograd_matches(lambda t: t.sqrt().sum(), x, atol=1e-5)

    def test_pow_non_scalar_rejected(self):
        with pytest.raises(TypeError):
            Tensor(np.ones(2)) ** Tensor(np.ones(2))

    def test_gradient_accumulates_across_uses(self, rng):
        x = Tensor(rng.normal(size=3), requires_grad=True)
        ((x * 2).sum() + (x * 3).sum()).backward()
        np.testing.assert_allclose(x.grad, np.full(3, 5.0))


class TestMatmulGradients:
    def test_2d(self, rng):
        x = rng.normal(size=(3, 4))
        other = Tensor(rng.normal(size=(4, 2)))
        assert_autograd_matches(lambda t: t.matmul(other).sum(), x)

    def test_2d_right_operand(self, rng):
        x = rng.normal(size=(4, 2))
        left = Tensor(rng.normal(size=(3, 4)))
        assert_autograd_matches(lambda t: left.matmul(t).sum(), x)

    def test_batched(self, rng):
        x = rng.normal(size=(2, 3, 4))
        other = Tensor(rng.normal(size=(2, 4, 5)))
        assert_autograd_matches(lambda t: (t @ other).sum(), x)

    def test_broadcast_batch(self, rng):
        x = rng.normal(size=(4, 5))  # broadcast against batched left side
        left = Tensor(rng.normal(size=(2, 3, 4)))
        assert_autograd_matches(lambda t: (left @ t).sum(), x)


class TestReductionGradients:
    def test_sum_all(self, rng):
        assert_autograd_matches(lambda t: t.sum(), rng.normal(size=(2, 3)))

    def test_sum_axis(self, rng):
        x = rng.normal(size=(2, 3))
        assert_autograd_matches(lambda t: (t.sum(axis=1) ** 2).sum(), x)

    def test_sum_keepdims(self, rng):
        x = rng.normal(size=(2, 3))
        assert_autograd_matches(lambda t: (t.sum(axis=0, keepdims=True) ** 2).sum(), x)

    def test_mean(self, rng):
        x = rng.normal(size=(4, 3))
        assert_autograd_matches(lambda t: (t.mean(axis=1) ** 2).sum(), x)

    def test_mean_all(self, rng):
        assert_autograd_matches(lambda t: t.mean() * 2.0, rng.normal(size=(3, 3)))

    def test_max(self, rng):
        x = rng.normal(size=(3, 5))
        assert_autograd_matches(lambda t: t.max(axis=1).sum(), x)

    def test_max_keepdims_value(self, rng):
        x = rng.normal(size=(2, 4))
        out = Tensor(x).max(axis=1, keepdims=True)
        np.testing.assert_allclose(out.data, x.max(axis=1, keepdims=True))

    def test_max_ties_split_gradient(self):
        x = Tensor(np.array([[1.0, 1.0]]), requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.5, 0.5]])


class TestShapeGradients:
    def test_reshape(self, rng):
        x = rng.normal(size=(2, 6))
        assert_autograd_matches(lambda t: (t.reshape(3, 4) ** 2).sum(), x)

    def test_reshape_tuple_arg(self, rng):
        x = rng.normal(size=(2, 6))
        out = Tensor(x).reshape((4, 3))
        assert out.shape == (4, 3)

    def test_transpose(self, rng):
        x = rng.normal(size=(2, 3, 4))
        other = Tensor(rng.normal(size=(4, 3, 2)))
        assert_autograd_matches(lambda t: (t.transpose(2, 1, 0) * other).sum(), x)

    def test_transpose_default_reverses(self, rng):
        x = Tensor(rng.normal(size=(2, 3)))
        assert x.transpose().shape == (3, 2)

    def test_swapaxes(self, rng):
        x = rng.normal(size=(2, 3, 4))
        other = Tensor(rng.normal(size=(2, 4, 3)))
        assert_autograd_matches(lambda t: (t.swapaxes(1, 2) * other).sum(), x)

    def test_getitem(self, rng):
        x = rng.normal(size=(4, 5))
        assert_autograd_matches(lambda t: (t[1:3, ::2] ** 2).sum(), x)

    def test_getitem_fancy_duplicate_indices(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        x[np.array([0, 0, 1])].sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 1.0, 0.0, 0.0])


class TestElementwiseGradients:
    def test_exp(self, rng):
        assert_autograd_matches(lambda t: t.exp().sum(), rng.normal(size=5), atol=1e-5)

    def test_log(self, rng):
        x = np.abs(rng.normal(size=5)) + 0.5
        assert_autograd_matches(lambda t: t.log().sum(), x, atol=1e-5)

    def test_tanh(self, rng):
        assert_autograd_matches(lambda t: t.tanh().sum(), rng.normal(size=5))


class TestConcatStack:
    def test_stack_values(self, rng):
        a, b = Tensor(rng.normal(size=3)), Tensor(rng.normal(size=3))
        assert stack([a, b], axis=0).shape == (2, 3)

    def test_stack_gradients(self, rng):
        x = rng.normal(size=(3,))
        other = Tensor(rng.normal(size=3))
        assert_autograd_matches(lambda t: (stack([t, other]) ** 2).sum(), x)

    def test_stack_empty_rejected(self):
        with pytest.raises(ShapeError):
            stack([])


class TestGraphMechanics:
    def test_deep_chain_backward_iterative(self):
        # A graph deep enough to break recursive backprop.
        x = Tensor(np.ones(1), requires_grad=True)
        out = x
        for _ in range(2000):
            out = out + 1.0
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_diamond_graph(self, rng):
        x = rng.normal(size=3)
        assert_autograd_matches(lambda t: ((t * 2) + (t * 3)).sum(), x)

    def test_zero_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 2).sum().backward()
        x.zero_grad()
        assert x.grad is None
