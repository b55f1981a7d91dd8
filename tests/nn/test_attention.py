"""Tests for multi-head self-attention."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, ShapeError
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.tensor import Tensor


@pytest.fixture
def attention():
    return MultiHeadSelfAttention(hidden_size=16, num_heads=4, rng=0)


class TestConstruction:
    def test_four_fc_layers(self, attention):
        # Table I: attention contributes 4 hidden x hidden FC layers.
        names = {name for name, _ in attention.named_parameters()}
        for fc in ("query", "key", "value", "output"):
            assert f"{fc}.weight" in names and f"{fc}.bias" in names

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError):
            MultiHeadSelfAttention(hidden_size=10, num_heads=3)


class TestForward:
    def test_output_shape(self, attention, rng):
        out = attention(Tensor(rng.normal(size=(2, 7, 16))))
        assert out.shape == (2, 7, 16)

    def test_wrong_hidden_rejected(self, attention, rng):
        with pytest.raises(ShapeError):
            attention(Tensor(rng.normal(size=(2, 7, 8))))

    def test_wrong_rank_rejected(self, attention, rng):
        with pytest.raises(ShapeError):
            attention(Tensor(rng.normal(size=(7, 16))))

    def test_mask_shape_checked(self, attention, rng):
        hidden = Tensor(rng.normal(size=(2, 7, 16)))
        with pytest.raises(ShapeError):
            attention(hidden, attention_mask=np.ones((2, 5)))

    def test_masked_positions_do_not_influence_output(self, attention, rng):
        """Changing a padding token's content must not change unmasked outputs."""
        x = rng.normal(size=(1, 5, 16))
        mask = np.array([[1, 1, 1, 0, 0]])
        out_a = attention(Tensor(x), attention_mask=mask).data
        x_mod = x.copy()
        x_mod[0, 3:, :] = rng.normal(size=(2, 16))
        out_b = attention(Tensor(x_mod), attention_mask=mask).data
        np.testing.assert_allclose(out_a[0, :3], out_b[0, :3], atol=1e-10)

    def test_permutation_equivariance_without_positions(self, attention, rng):
        """Self-attention commutes with token permutation."""
        x = rng.normal(size=(1, 6, 16))
        perm = rng.permutation(6)
        out = attention(Tensor(x)).data
        out_perm = attention(Tensor(x[:, perm])).data
        np.testing.assert_allclose(out[:, perm], out_perm, atol=1e-10)

    @given(batch=st.integers(1, 3), seq=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_all_ones_mask_equals_no_mask_exactly(self, batch, seq, seed):
        """With no key masked the -1e9 fill is skipped: a lone request's
        output is the unmasked forward's bit for bit."""
        attention = MultiHeadSelfAttention(hidden_size=16, num_heads=4, rng=seed)
        hidden = Tensor(np.random.default_rng(seed).normal(size=(batch, seq, 16)))
        masked = attention(hidden, attention_mask=np.ones((batch, seq), dtype=np.int64))
        assert np.array_equal(masked.data, attention(hidden).data)

    def test_gradients_reach_all_projections(self, attention, rng):
        attention(Tensor(rng.normal(size=(1, 4, 16)))).sum().backward()
        for name, param in attention.named_parameters():
            assert param.grad is not None, name


class TestHeadPlumbing:
    def test_split_merge_round_trip(self, attention, rng):
        x = Tensor(rng.normal(size=(2, 5, 16)))
        round_tripped = attention._merge_heads(attention._split_heads(x))
        np.testing.assert_allclose(round_tripped.data, x.data)

    @given(axes=st.permutations(range(4)), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_transpose_gradient_is_the_inverse_permutation(self, axes, seed):
        """Heads are split and merged by transposes, whose backward now
        inverts the permutation only when it runs."""
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
        out = x.transpose(*axes)
        upstream = rng.normal(size=out.shape)
        out.backward(upstream)
        assert np.array_equal(out.data, x.data.transpose(axes))
        assert np.array_equal(x.grad, upstream.transpose(np.argsort(axes)))
