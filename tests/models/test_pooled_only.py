"""``BertModel.forward(..., pooled_only=True)``: the serving forward.

It computes the packed rows of the real tokens only, and in the last layer
the [CLS] rows alone, so its pooled output may differ from the dense
forward's only by BLAS summation order over the other row counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.model_quantizer import quantize_model
from repro.errors import ShapeError
from repro.models import BertModel, attach_quantized_linears
from tests.conftest import MICRO_CONFIG

SEED = 20261020


def build(kind):
    """The FP32 micro model, or its GOBO-attached twin."""
    fp32 = BertModel(MICRO_CONFIG, rng=SEED).eval()
    if kind == "fp32":
        return fp32
    qmodel = quantize_model(fp32, weight_bits=3, embedding_bits=4)
    return attach_quantized_linears(BertModel(MICRO_CONFIG, rng=SEED), qmodel)


@pytest.fixture(scope="module", params=["fp32", "gobo"])
def model(request):
    return build(request.param)


@pytest.fixture(scope="module")
def gobo():
    return build("gobo")


def grid(rng, mask):
    """Random token ids and token types (0 or 1) over ``mask``'s grid; the
    padding cells get random ones too, which no output may depend on."""
    ids = rng.integers(0, MICRO_CONFIG.vocab_size, size=mask.shape)
    return ids, rng.integers(0, 2, size=mask.shape)


@st.composite
def ragged_batches(draw):
    """1-8 rows of 1 to ``max_position`` tokens, suffix-padded; a quarter
    of the batches have every row at the grid's width (no padding)."""
    rows = draw(st.integers(1, 8))
    length = st.integers(1, MICRO_CONFIG.max_position)
    if draw(st.integers(0, 3)) == 0:
        lengths = [draw(length)] * rows
    else:
        lengths = draw(st.lists(length, min_size=rows, max_size=rows))
    mask = np.zeros((rows, max(lengths)), dtype=np.int64)
    for row, size in enumerate(lengths):
        mask[row, :size] = 1
    return (*grid(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), mask), mask)


def assert_pooled_matches_dense(model, ids, mask, types):
    _, dense = model(ids, mask, types)
    sequence, pooled = model(ids, mask, types, pooled_only=True)
    assert sequence is None
    assert pooled.shape == dense.shape
    np.testing.assert_allclose(pooled.data, dense.data, rtol=0, atol=1e-12)


class TestMatchesDense:
    @given(batch=ragged_batches())
    @settings(max_examples=60, deadline=None)
    def test_ragged_batches(self, model, batch):
        ids, types, mask = batch
        assert_pooled_matches_dense(model, ids, mask, types)

    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6),
           width=st.integers(1, MICRO_CONFIG.max_position))
    @settings(max_examples=40, deadline=None)
    def test_any_mask_with_an_unmasked_position_per_row(self, model, seed, rows, width):
        """Holes anywhere, and a masked [CLS] cell: column 0 stays a
        computed row whatever its mask."""
        rng = np.random.default_rng(seed)
        mask = rng.integers(0, 2, size=(rows, width))
        mask[np.arange(rows), rng.integers(0, width, size=rows)] = 1
        ids, types = grid(rng, mask)
        assert_pooled_matches_dense(model, ids, mask, types)

    def test_no_mask_and_no_token_types(self, model):
        ids = np.random.default_rng(3).integers(0, MICRO_CONFIG.vocab_size, size=(3, 7))
        _, dense = model(ids)
        _, pooled = model(ids, pooled_only=True)
        np.testing.assert_allclose(pooled.data, dense.data, rtol=0, atol=1e-12)


class TestRowsComputed:
    def test_lookup_rows_count_real_tokens_and_cls(self, gobo):
        """Every layer but the last runs its six FC kernels on the T real
        tokens; the last runs K and V on them and Q, attention output,
        intermediate and output on the B [CLS] rows, as the pooler does."""
        lengths = [9, 3, 5, 1]
        batch, width, layers = len(lengths), max(lengths), MICRO_CONFIG.num_layers
        mask = (np.arange(width) < np.array(lengths)[:, None]).astype(np.int64)
        ids, types = grid(np.random.default_rng(5), mask)
        tokens = sum(lengths)

        def rows(**kwargs):
            with obs.scope() as scoped:
                gobo(ids, mask, types, **kwargs)
            return scoped.snapshot().counter("kernels.lookup_matmul_rows")

        assert rows(pooled_only=True) == 6 * (layers - 1) * tokens + 2 * tokens + 5 * batch
        assert rows() == 6 * layers * batch * width + batch


class TestRejects:
    def test_row_with_no_unmasked_position(self, model):
        mask = np.array([[1, 1, 1], [0, 0, 0]])
        ids, types = grid(np.random.default_rng(9), mask)
        model(ids, mask, types)  # the dense forward attends over padding alone
        with pytest.raises(ShapeError, match="unmasked position"):
            model(ids, mask, types, pooled_only=True)

    def test_mask_shape_must_match(self, model):
        ids = np.ones((2, 4), dtype=np.int64)
        with pytest.raises(ShapeError):
            model(ids, np.ones((2, 3)), pooled_only=True)
