"""Property-based autograd checks: random expressions vs numeric gradients."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.tensor import Tensor
from tests.conftest import assert_autograd_matches

# Each op gets a closure building a scalar from a (3, 4) tensor.
_SAFE_OPS = {
    "sum_of_squares": lambda t: (t * t).sum(),
    "softmax_weighted": lambda t: (F.softmax(t) * F.softmax(t)).sum(),
    "gelu_sum": lambda t: F.gelu(t).sum(),
    "tanh_mean": lambda t: t.tanh().mean(),
    "row_max": lambda t: t.max(axis=1).sum(),
    "reshaped": lambda t: (t.reshape(4, 3) ** 2).mean(),
    "sliced": lambda t: (t[1:, ::2] * 3.0).sum(),
    "log_softmax_first": lambda t: F.log_softmax(t, axis=0)[0].sum(),
    "transposed_matmul": lambda t: (t @ t.swapaxes(0, 1)).sum(),
}


@given(
    op=st.sampled_from(sorted(_SAFE_OPS)),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_random_expressions_match_numeric_gradient(op, seed):
    x = np.random.default_rng(seed).normal(size=(3, 4))
    assert_autograd_matches(_SAFE_OPS[op], x, atol=1e-5)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_composed_pipeline_gradient(seed):
    """A small attention-like pipeline: matmul -> softmax -> weighted sum."""
    rng = np.random.default_rng(seed)
    keys = Tensor(rng.normal(size=(4, 5)))
    values = Tensor(rng.normal(size=(4, 2)))

    def pipeline(queries: Tensor):
        scores = queries @ keys.swapaxes(0, 1)
        probs = F.softmax(scores, axis=-1)
        return (probs @ values).sum()

    assert_autograd_matches(pipeline, rng.normal(size=(3, 5)), atol=1e-5)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_layer_norm_gradient_property(seed):
    rng = np.random.default_rng(seed)
    weight = Tensor(rng.normal(1.0, 0.2, 6))
    bias = Tensor(rng.normal(0.0, 0.2, 6))
    assert_autograd_matches(
        lambda t: (F.layer_norm(t, weight, bias) ** 2).sum(),
        rng.normal(size=(2, 6)),
        atol=1e-4,
    )
