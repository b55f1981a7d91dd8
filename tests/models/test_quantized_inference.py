"""End-to-end: a quantized BERT forward pass on the compressed representation.

The acceptance bar: after :func:`~repro.models.attach_quantized_linears`,
a BERT forward runs through :class:`~repro.nn.QuantizedLinear` and
:class:`~repro.nn.QuantizedEmbedding` with *zero*
``quantizer.dequantize_calls`` events, at attach and in the forward — no
FP32 weight matrix or embedding table is ever materialized — and matches
the dequantize-then-load path.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.model_quantizer import quantize_model
from repro.errors import QuantizationError
from repro.models import BertModel, attach_quantized_linears, resident_bytes
from repro.nn import Embedding, Linear, QuantizedEmbedding, QuantizedLinear
from tests.conftest import MICRO_CONFIG


@pytest.fixture(scope="module")
def quantized_setup():
    model = BertModel(MICRO_CONFIG, rng=20260807).eval()
    qmodel = quantize_model(model, weight_bits=3, embedding_bits=4)
    reference = BertModel(MICRO_CONFIG, rng=20260807).eval()
    qmodel.apply_to(reference)  # the decode-then-load baseline
    compressed = attach_quantized_linears(BertModel(MICRO_CONFIG, rng=20260807), qmodel)
    return qmodel, reference, compressed


def micro_inputs():
    rng = np.random.default_rng(7)
    input_ids = rng.integers(0, MICRO_CONFIG.vocab_size, size=(2, 9))
    return input_ids


class TestAttach:
    def test_all_fc_layers_swapped(self, quantized_setup):
        qmodel, _, compressed = quantized_setup
        qlinears = [
            name
            for name, module in compressed.named_modules()
            if isinstance(module, QuantizedLinear)
        ]
        assert len(qlinears) == len(qmodel.fc_names)
        assert "pooler" in qlinears
        assert "encoder.0.attention.query" in qlinears

    def test_all_embedding_tables_swapped(self, quantized_setup):
        qmodel, _, compressed = quantized_setup
        modules = dict(compressed.named_modules())
        for name in qmodel.embedding_names:
            assert isinstance(modules[name[: -len(".weight")]], QuantizedEmbedding)
        assert not any(isinstance(m, Embedding) for m in modules.values())
        assert not set(qmodel.quantized) & {n for n, _ in compressed.named_parameters()}

    def test_model_is_in_eval_mode(self, quantized_setup):
        _, _, compressed = quantized_setup
        assert all(not m.training for _, m in compressed.named_modules())

    def test_forward_records_no_graph(self, quantized_setup):
        """Every parameter is frozen, so no output of a forward is on the
        autograd tape: each intermediate is freed when dropped, not left to
        the cyclic garbage collector."""
        _, _, compressed = quantized_setup
        assert not any(param.requires_grad for param in compressed.parameters())
        mask = np.ones((2, 9), dtype=np.int64)
        mask[1, 5:] = 0
        for pooled_only in (False, True):
            hidden, pooled = compressed(micro_inputs(), mask, pooled_only=pooled_only)
            assert not pooled.requires_grad and not pooled._parents
            assert hidden is None or not hidden.requires_grad

    def test_forward_matches_dequantize_path(self, quantized_setup):
        _, reference, compressed = quantized_setup
        input_ids = micro_inputs()
        hidden_ref, pooled_ref = reference(input_ids)
        hidden, pooled = compressed(input_ids)
        np.testing.assert_allclose(hidden.data, hidden_ref.data, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(pooled.data, pooled_ref.data, rtol=1e-9, atol=1e-11)

    def test_attach_decodes_nothing(self, quantized_setup):
        """Attach swaps the module of every quantized tensor, embeddings
        included, so it dequantizes none of them; the outputs equal the
        decode-then-load path's bit for bit."""
        qmodel, reference, _ = quantized_setup
        with obs.scope() as trace:
            attached = attach_quantized_linears(BertModel(MICRO_CONFIG, rng=1), qmodel)
        names = [e["name"] for e in trace.events]
        assert "quantizer.dequantize_calls" not in names
        assert names.count("kernels.prepared") == len(qmodel.quantized)
        input_ids = micro_inputs()
        for got, want in zip(attached(input_ids), reference(input_ids)):
            np.testing.assert_array_equal(got.data, want.data)

    def test_forward_never_dequantizes(self, quantized_setup):
        """The tentpole assertion: the compressed forward path performs zero
        dequantize() calls, routes every FC matmul through the kernels and
        gathers every embedding lookup from a compressed table."""
        qmodel, _, compressed = quantized_setup
        input_ids = micro_inputs()
        with obs.scope() as trace:
            compressed(input_ids)
        names = [event["name"] for event in trace.events]
        assert "quantizer.dequantize_calls" not in names
        assert names.count("kernels.lookup_matmul_calls") == len(qmodel.fc_names)
        assert names.count("kernels.lookup_gather_calls") == len(qmodel.embedding_names)

    def test_resident_bytes_counts_kernels_and_parameters(self, quantized_setup):
        qmodel, reference, compressed = quantized_setup
        kernels = [m.kernel for _, m in compressed.named_modules()
                   if isinstance(m, (QuantizedLinear, QuantizedEmbedding))]
        assert len(kernels) == len(qmodel.quantized)
        params = sum(p.data.nbytes for p in compressed.parameters())
        expected = sum(k.prepared_nbytes for k in kernels) + params
        assert resident_bytes(compressed) == expected
        assert resident_bytes(reference) == sum(p.data.nbytes for p in reference.parameters())
        assert resident_bytes(compressed) < resident_bytes(reference)

    def test_baseline_forward_does_not_use_kernels(self, quantized_setup):
        _, reference, _ = quantized_setup
        with obs.scope() as trace:
            reference(micro_inputs())
        assert "kernels.lookup_matmul_calls" not in [e["name"] for e in trace.events]

    def test_fp32_fallback_layer_keeps_its_linear(self):
        model = BertModel(MICRO_CONFIG, rng=3).eval()
        qmodel = quantize_model(model, weight_bits=3, embedding_bits=None)
        dropped = qmodel.fc_names[0]
        fp32 = dict(qmodel.fp32)
        fp32[dropped] = qmodel.quantized[dropped].dequantize(np.float64)
        quantized = {k: v for k, v in qmodel.quantized.items() if k != dropped}
        partial = type(qmodel)(
            quantized=quantized,
            fp32=fp32,
            fc_names=qmodel.fc_names,
            embedding_names=qmodel.embedding_names,
        )
        target = attach_quantized_linears(BertModel(MICRO_CONFIG, rng=3), partial)
        modules = dict(target.named_modules())
        assert isinstance(modules[dropped[: -len(".weight")]], Linear)
        assert isinstance(modules[qmodel.fc_names[1][: -len(".weight")]], QuantizedLinear)

    def test_quantized_tensor_on_another_module_raises(self):
        """Only Linear and Embedding modules have a compressed counterpart;
        a quantized LayerNorm weight is refused, not decoded."""
        model = BertModel(MICRO_CONFIG, rng=4).eval()
        qmodel = quantize_model(model, weight_bits=3, embedding_bits=None)
        norm = "embeddings.norm.weight"
        quantized = dict(qmodel.quantized)
        quantized[norm] = next(iter(qmodel.quantized.values()))
        fp32 = {k: v for k, v in qmodel.fp32.items() if k != norm}
        bogus = type(qmodel)(
            quantized=quantized, fp32=fp32,
            fc_names=qmodel.fc_names, embedding_names=qmodel.embedding_names,
        )
        with obs.scope() as trace, pytest.raises(QuantizationError, match="LayerNorm"):
            attach_quantized_linears(BertModel(MICRO_CONFIG, rng=4), bogus)
        assert "quantizer.dequantize_calls" not in [e["name"] for e in trace.events]

    def test_bad_path_raises(self):
        model = BertModel(MICRO_CONFIG, rng=5).eval()
        qmodel = quantize_model(model, weight_bits=3, embedding_bits=None)
        bogus = type(qmodel)(
            quantized={"encoder.9.attention.query.weight": next(iter(qmodel.quantized.values()))},
            fp32=model.state_dict(),
            fc_names=("encoder.9.attention.query.weight",),
            embedding_names=(),
        )
        with pytest.raises((QuantizationError, KeyError)):
            attach_quantized_linears(BertModel(MICRO_CONFIG, rng=5), bogus)
