"""QuantizedEmbedding: Embedding semantics on the compressed table."""

import numpy as np
import pytest

from repro.core.quantizer import quantize_tensor
from repro.errors import ShapeError
from repro.nn import Embedding, QuantizedEmbedding, Tensor
from repro.utils.rng import derive_rng


def make_pair(rng, num_embeddings=40, embedding_dim=12):
    """An Embedding and the QuantizedEmbedding built from its quantized table."""
    embedding = Embedding(num_embeddings, embedding_dim, rng=rng)
    tensor, _ = quantize_tensor(embedding.weight.data, bits=4)
    return embedding, QuantizedEmbedding.from_embedding(embedding, tensor), tensor


class TestForward:
    def test_matches_the_decoded_embedding_bit_for_bit(self):
        rng = derive_rng(20260807, "qembedding-fwd")
        embedding, qembedding, tensor = make_pair(rng)
        # The FP32 Embedding holds the *reconstructed* table, so both
        # compute the same function.
        embedding.weight.data = tensor.dequantize(dtype=np.float64)
        ids = rng.integers(0, 40, size=(3, 9))
        out = qembedding(ids)
        assert isinstance(out, Tensor)
        np.testing.assert_array_equal(out.data, embedding.eval()(ids).data)

    def test_no_dequantize_during_forward(self):
        from repro import obs

        rng = derive_rng(20260807, "qembedding-obs")
        _, qembedding, _ = make_pair(rng)
        with obs.scope() as trace:
            qembedding(np.array([[1, 2, 3]]))
        names = [event["name"] for event in trace.events]
        assert "quantizer.dequantize_calls" not in names
        assert "kernels.lookup_gather_calls" in names


class TestContract:
    def test_owns_no_parameters(self):
        rng = derive_rng(20260807, "qembedding-params")
        _, qembedding, _ = make_pair(rng)
        assert list(qembedding.named_parameters()) == []
        assert qembedding.state_dict() == {}

    def test_training_mode_raises(self):
        rng = derive_rng(20260807, "qembedding-train")
        _, qembedding, _ = make_pair(rng)
        assert qembedding.training is False
        qembedding.train()
        with pytest.raises(RuntimeError, match="inference-only"):
            qembedding(np.array([0]))

    def test_shape_mismatch_rejected(self):
        rng = derive_rng(20260807, "qembedding-shape")
        _, _, tensor = make_pair(rng)
        with pytest.raises(ShapeError, match="does not match"):
            QuantizedEmbedding.from_embedding(Embedding(41, 12, rng=0), tensor)

    def test_non_2d_tensor_rejected(self):
        rng = derive_rng(20260807, "qembedding-1d")
        tensor, _ = quantize_tensor(rng.normal(scale=0.05, size=(6, 6)), bits=3)
        flat = type(tensor)(
            shape=(36,),
            bits=tensor.bits,
            centroids=tensor.centroids,
            packed_codes=tensor.packed_codes,
            outlier_positions=tensor.outlier_positions,
            outlier_values=tensor.outlier_values,
        )
        with pytest.raises(ShapeError):
            QuantizedEmbedding(flat)
