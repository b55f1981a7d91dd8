"""Lookup-kernel correctness: lookup matmul ≡ dequantize-then-matmul.

The correctness bar: bit-exact in float64 (checked on exactly-representable
inputs, where any misrouted weight changes the exact sum), within 1e-6
relative in float32, across bits 1-16, every group size (1, 2 and 4 codes
per index, padded and unpadded rows), outlier fractions including 0 and 1,
empty/degenerate tensors, any tile size, and concurrent callers; malformed
tensors are rejected at prepare.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels.lookup as lookup_module
from repro.core.quantizer import GoboQuantizedTensor, quantize_tensor
from repro.errors import SerializationError, ShapeError
from repro.kernels import LookupKernel, dequantize_matmul, lookup_matmul
from repro.kernels.lookup import group_size
from repro.utils.bitpack import pack_bits
from repro.utils.rng import derive_rng


def make_tensor(
    rng: np.random.Generator,
    shape: tuple[int, int],
    bits: int,
    outlier_fraction: float,
    dyadic: bool = False,
) -> GoboQuantizedTensor:
    """Hand-build a quantized tensor with exact control over every field.

    ``dyadic=True`` draws centroids and outliers from powers of two, so
    products against integer activations are exact in float64 and the
    lookup/dequantize comparison can demand bit equality.
    """
    total = int(np.prod(shape))
    n_centroids = 1 << bits
    if dyadic:
        centroids = 2.0 ** rng.integers(-4, 4, size=n_centroids).astype(np.float64)
        centroids *= rng.choice([-1.0, 1.0], size=n_centroids)
    else:
        centroids = np.sort(rng.normal(size=n_centroids))
    n_outliers = int(round(total * outlier_fraction))
    positions = np.sort(rng.choice(total, size=n_outliers, replace=False)).astype(np.int64)
    if dyadic:
        values = 2.0 ** rng.integers(-2, 6, size=n_outliers).astype(np.float64)
        values *= rng.choice([-1.0, 1.0], size=n_outliers)
    else:
        values = rng.normal(size=n_outliers) * 4.0
    codes = rng.integers(0, n_centroids, size=total - n_outliers)
    return GoboQuantizedTensor(
        shape=shape,
        bits=bits,
        centroids=centroids,
        packed_codes=pack_bits(codes, bits),
        outlier_positions=positions,
        outlier_values=values,
    )


class TestEquivalence:
    @pytest.mark.parametrize("bits", [*range(2, 9), 10, 12, 16])
    @pytest.mark.parametrize("outlier_fraction", [0.0, 0.02, 0.5])
    def test_matches_dequantize_float64(self, bits, outlier_fraction):
        rng = derive_rng(20260807, "kernel-eq", bits, int(outlier_fraction * 100))
        tensor = make_tensor(rng, (13, 17), bits, outlier_fraction)
        x = rng.normal(size=(5, 17))
        np.testing.assert_allclose(
            LookupKernel(tensor).matmul(x),
            dequantize_matmul(x, tensor),
            rtol=1e-12,
            atol=1e-12,
        )

    @pytest.mark.parametrize("bits", [2, 3, 4, 8, 10, 12, 16])
    def test_bit_exact_float64_on_exact_inputs(self, bits):
        """Integer activations x dyadic centroids: every partial product is
        exact in float64, so any summation order gives the same bits and
        the kernel must agree with the dequantize path *exactly*.  This
        catches any misrouted code/outlier with probability ~1."""
        rng = derive_rng(20260807, "kernel-exact", bits)
        tensor = make_tensor(rng, (24, 31), bits, 0.05, dyadic=True)
        x = rng.integers(-8, 9, size=(4, 31)).astype(np.float64)
        lookup = LookupKernel(tensor).matmul(x)
        reference = dequantize_matmul(x, tensor)
        assert lookup.dtype == np.float64
        np.testing.assert_array_equal(lookup, reference)

    def test_float32_within_relative_tolerance(self):
        self._check_float32("kernel-f32", (48, 64), 3)

    def test_float32_within_relative_tolerance_grouped(self):
        """The same bar when the tile decodes four codes per gather."""
        self._check_float32("kernel-f32-g4", (128, 127), 2, group=4)

    @staticmethod
    def _check_float32(name, shape, bits, group=None):
        rng = derive_rng(20260807, name)
        tensor = make_tensor(rng, shape, bits, 0.01)
        kernel = LookupKernel(tensor)
        assert group is None or kernel.group == group
        x = rng.normal(size=(8, shape[1])).astype(np.float32)
        lookup = kernel.matmul(x)
        reference = dequantize_matmul(x, tensor)
        assert lookup.dtype == np.float32
        # Relative to the output scale: the two paths sum in different
        # orders, so per-element relative error is unbounded under
        # cancellation, but the error relative to the result magnitude
        # must stay within float32 noise.
        scale = float(np.max(np.abs(reference)))
        assert float(np.max(np.abs(lookup - reference))) < 1e-6 * scale

    def test_matches_real_quantizer_output(self):
        rng = derive_rng(20260807, "kernel-real")
        weights = rng.normal(scale=0.05, size=(40, 56))
        tensor, _ = quantize_tensor(weights, bits=3)
        x = rng.normal(size=(3, 56))
        np.testing.assert_allclose(
            lookup_matmul(x, tensor), dequantize_matmul(x, tensor), rtol=1e-12, atol=1e-12
        )

    def test_all_outliers(self):
        """gaussian_count == 0: every weight is an FP32 value, with or
        without a centroid table."""
        rng = derive_rng(20260807, "kernel-all-out")
        full = make_tensor(rng, (6, 9), 3, 1.0)
        x = rng.normal(size=(2, 9))
        for centroids in (full.centroids, np.empty(0)):
            tensor = GoboQuantizedTensor(
                shape=full.shape,
                bits=full.bits,
                centroids=centroids,
                packed_codes=full.packed_codes,
                outlier_positions=full.outlier_positions,
                outlier_values=full.outlier_values,
            )
            np.testing.assert_allclose(
                LookupKernel(tensor).matmul(x),
                dequantize_matmul(x, tensor),
                rtol=1e-12,
                atol=1e-12,
            )

    @given(
        rows=st.integers(min_value=0, max_value=12),
        cols=st.integers(min_value=0, max_value=12),
        batch=st.integers(min_value=1, max_value=4),
        bits=st.integers(min_value=2, max_value=16),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_random_shapes(self, rows, cols, batch, bits, seed):
        """Property test: lookup ≡ dequantize for random shapes, bits 2-16,
        outlier fraction 0, including empty tensors."""
        rng = np.random.default_rng(seed)
        tensor = make_tensor(rng, (rows, cols), bits, 0.0)
        x = rng.normal(size=(batch, cols))
        np.testing.assert_allclose(
            LookupKernel(tensor).matmul(x),
            dequantize_matmul(x, tensor),
            rtol=1e-12,
            atol=1e-12,
        )


class TestShapes:
    def test_vector_input(self):
        rng = derive_rng(20260807, "kernel-vec")
        tensor = make_tensor(rng, (7, 11), 3, 0.1)
        x = rng.normal(size=11)
        result = LookupKernel(tensor).matmul(x)
        assert result.shape == (7,)
        np.testing.assert_allclose(result, dequantize_matmul(x, tensor), rtol=1e-12)

    def test_3d_batch(self):
        rng = derive_rng(20260807, "kernel-3d")
        tensor = make_tensor(rng, (10, 6), 4, 0.0)
        x = rng.normal(size=(2, 3, 6))
        result = LookupKernel(tensor).matmul(x)
        assert result.shape == (2, 3, 10)
        np.testing.assert_allclose(result, dequantize_matmul(x, tensor), rtol=1e-12)

    def test_empty_rows(self):
        rng = derive_rng(20260807, "kernel-empty-rows")
        tensor = make_tensor(rng, (0, 5), 3, 0.0)
        assert LookupKernel(tensor).matmul(rng.normal(size=(4, 5))).shape == (4, 0)

    def test_empty_cols(self):
        rng = derive_rng(20260807, "kernel-empty-cols")
        tensor = make_tensor(rng, (5, 0), 3, 0.0)
        result = LookupKernel(tensor).matmul(np.empty((4, 0)))
        assert result.shape == (4, 5)
        np.testing.assert_array_equal(result, np.zeros((4, 5)))

    def test_wrong_last_dim_rejected(self):
        rng = derive_rng(20260807, "kernel-baddim")
        tensor = make_tensor(rng, (5, 8), 3, 0.0)
        with pytest.raises(ShapeError, match="last dim 8"):
            LookupKernel(tensor).matmul(np.zeros((2, 9)))
        with pytest.raises(ShapeError, match="last dim 8"):
            dequantize_matmul(np.zeros((2, 9)), tensor)

    def test_non_2d_tensor_rejected(self):
        rng = derive_rng(20260807, "kernel-1d")
        tensor = make_tensor(rng, (4, 5), 3, 0.0)
        flat = GoboQuantizedTensor(
            shape=(20,),
            bits=tensor.bits,
            centroids=tensor.centroids,
            packed_codes=tensor.packed_codes,
            outlier_positions=tensor.outlier_positions,
            outlier_values=tensor.outlier_values,
        )
        with pytest.raises(ShapeError, match="2-D"):
            LookupKernel(flat)
        with pytest.raises(ShapeError, match="2-D"):
            dequantize_matmul(np.zeros(20), flat)


class TestChunking:
    """The kernel decodes ``W`` in chunks (bands) of output rows sized by
    ``_TILE_BYTES`` and widened to the batch's row count: results must not
    depend on the chunk size, and a call's temporaries must stay
    chunk-sized, not weight-sized."""

    def test_chunked_batch_matches_unchunked(self, monkeypatch):
        rng = derive_rng(20260807, "kernel-chunk")
        tensor = make_tensor(rng, (9, 14), 3, 0.05, dyadic=True)
        for chunk_rows in (1, 2, 3, 5, 100):
            monkeypatch.setattr(lookup_module, "_TILE_BYTES", 14 * 8 * chunk_rows)
            # One row and chunk_rows rows keep the budget's chunk; 17 rows
            # widen it past the layer.
            for batch in (1, chunk_rows, 17):
                x = rng.integers(-8, 9, size=(batch, 14)).astype(np.float64)
                np.testing.assert_array_equal(
                    LookupKernel(tensor).matmul(x), dequantize_matmul(x, tensor)
                )

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 5, 17, 100])
    def test_outlier_correction_chunked(self, monkeypatch, chunk_rows):
        """Outliers overwrite their slots chunk by chunk, so an
        outlier-heavy layer must give the same result at every chunk size,
        including one row and more rows than the layer has."""
        rng = derive_rng(20260807, "kernel-chunk-out", chunk_rows)
        tensor = make_tensor(rng, (9, 14), 3, 0.4)  # outlier-heavy
        monkeypatch.setattr(lookup_module, "_TILE_BYTES", 14 * 8 * chunk_rows)
        for batch in (1, 17):
            x = rng.normal(size=(batch, 14))
            np.testing.assert_allclose(
                LookupKernel(tensor).matmul(x),
                dequantize_matmul(x, tensor),
                rtol=1e-12,
                atol=1e-12,
            )

    def test_per_call_memory_is_chunk_bounded(self):
        """A batch-8 call on a 1024x1024 layer allocates a decoded tile, not
        a weight- or gather-sized buffer: its peak stays below a quarter
        of the dense float64 weight."""
        rng = derive_rng(20260807, "kernel-chunk-memory")
        tensor = make_tensor(rng, (1024, 1024), 3, 0.01)
        kernel = LookupKernel(tensor)
        x = rng.normal(size=(8, 1024))
        tracemalloc.start()
        try:
            kernel.matmul(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024 * 8 // 4, f"peak {peak} B"

    def test_concurrent_calls_share_one_kernel(self, monkeypatch):
        """The scratch tile is per call: threads multiplying different
        inputs through one kernel each get their own correct result."""
        _check_concurrent_calls(monkeypatch, "kernel-threads", (40, 24), 4)


def _check_concurrent_calls(monkeypatch, name, shape, bits, group=None):
    rng = derive_rng(20260807, name)
    tensor = make_tensor(rng, shape, bits, 0.1)
    kernel = LookupKernel(tensor)
    assert group is None or kernel.group == group
    monkeypatch.setattr(lookup_module, "_TILE_BYTES", shape[1] * 8 * 3)
    workers = 4  # more threads than the CI runners have cores
    inputs = [rng.normal(size=(6, shape[1])) * 10.0**i for i in range(workers)]
    expected = [dequantize_matmul(x, tensor) for x in inputs]
    barrier = threading.Barrier(workers)
    failures = []

    def worker(index):
        barrier.wait()
        for _ in range(200):
            got = kernel.matmul(inputs[index])
            if not np.allclose(got, expected[index], rtol=1e-12, atol=1e-12):
                failures.append(index)
                return

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures


class TestMalformedTensor:
    def test_code_past_the_centroid_table_rejected(self):
        """A 3-bit stream with a 4-entry table: codes 4-7 have no centroid.
        The kernel must refuse the tensor instead of decoding garbage."""
        codes = np.arange(8).repeat(3)
        tensor = GoboQuantizedTensor(
            shape=(4, 6),
            bits=3,
            centroids=np.array([-1.0, -0.5, 0.5, 1.0]),
            packed_codes=pack_bits(codes, 3),
            outlier_positions=np.empty(0, dtype=np.int64),
            outlier_values=np.empty(0),
        )
        with pytest.raises(SerializationError, match=r"\(4, 6\) has code 7"):
            LookupKernel(tensor)

    @pytest.mark.parametrize("positions", [[5, 3], [2, 2], [3, 24], [-1, 3]])
    def test_bad_outlier_positions_rejected(self, positions):
        rng = derive_rng(20260807, "kernel-bad-positions")
        tensor = make_tensor(rng, (4, 6), 3, 0.0)
        bad = GoboQuantizedTensor(
            shape=tensor.shape,
            bits=tensor.bits,
            centroids=tensor.centroids,
            packed_codes=pack_bits(rng.integers(0, 8, size=22), 3),
            outlier_positions=np.array(positions, dtype=np.int64),
            outlier_values=np.ones(2),
        )
        with pytest.raises(SerializationError, match="outlier positions"):
            LookupKernel(bad)


class TestObservability:
    def test_no_dequantize_on_lookup_path(self):
        """The whole point: LookupKernel never touches dequantize()."""
        from repro import obs

        rng = derive_rng(20260807, "kernel-obs")
        tensor = make_tensor(rng, (12, 15), 3, 0.1)
        kernel = LookupKernel(tensor)
        x = rng.normal(size=(2, 15))
        with obs.scope() as trace:
            kernel.matmul(x)
        names = [event["name"] for event in trace.events]
        assert "quantizer.dequantize_calls" not in names
        assert "kernels.lookup_matmul_calls" in names

    def test_dequantize_baseline_counts(self):
        from repro import obs

        rng = derive_rng(20260807, "kernel-obs2")
        tensor = make_tensor(rng, (12, 15), 3, 0.1)
        with obs.scope() as trace:
            dequantize_matmul(rng.normal(size=(2, 15)), tensor)
        names = [event["name"] for event in trace.events]
        assert "quantizer.dequantize_calls" in names

    def test_prepared_nbytes_bounded(self):
        """Resident state is one uint16 index per four 3-bit codes plus a
        128 KiB tuple table, the outliers and the centroid table: under
        0.75 B per weight on a 768x768 layer."""
        rng = derive_rng(20260807, "kernel-bytes")
        tensor = make_tensor(rng, (768, 768), 3, 0.01)
        nbytes = LookupKernel(tensor).prepared_nbytes
        bound = 0.75 * tensor.total_count + 24 * tensor.outlier_count + 4096
        assert 0 < nbytes <= bound


class TestGather:
    """The row gather behind :class:`~repro.nn.QuantizedEmbedding`: the
    requested rows of the decoded table, bit for bit, at every group size,
    with ``nn.Embedding``'s id checks."""

    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 8, 10, 16])
    @pytest.mark.parametrize("outlier_fraction", [0.0, 0.05, 1.0])
    def test_rows_equal_the_decoded_table(self, bits, outlier_fraction):
        rng = derive_rng(20260807, "gather", bits, int(outlier_fraction * 100))
        tensor = make_tensor(rng, (29, 13), bits, outlier_fraction)
        ids = rng.integers(0, 29, size=(3, 7))
        np.testing.assert_array_equal(
            LookupKernel(tensor).gather(ids), tensor.dequantize(np.float64)[ids]
        )

    @pytest.mark.parametrize(("bits", "shape", "group"), [
        (2, (128, 128), 4), (2, (128, 127), 4), (3, (64, 64), 2), (3, (256, 255), 2),
        (4, (64, 63), 1), (7, (20, 9), 1),
    ])
    def test_every_group_size_and_padded_stride(self, bits, shape, group):
        rng = derive_rng(20260807, "gather-group", bits, *shape)
        tensor = make_tensor(rng, shape, bits, 0.03)
        kernel = LookupKernel(tensor)
        assert kernel.group == group
        table = tensor.dequantize(np.float64)
        np.testing.assert_array_equal(kernel.gather(np.arange(shape[0])), table)

    def test_outliers_in_a_rows_first_and_last_slot(self):
        rng = derive_rng(20260807, "gather-edges")
        rows, cols = 6, 10
        weights = rng.normal(scale=0.01, size=(rows, cols))
        weights[2, 0], weights[2, -1], weights[5, -1], weights[0, 0] = 5.0, -5.0, 4.0, -4.0
        tensor, _ = quantize_tensor(weights, bits=3)
        assert {0, 2 * cols, 3 * cols - 1, rows * cols - 1} <= set(
            tensor.outlier_positions.tolist()
        )
        ids = np.array([5, 2, 0, 2])
        got = LookupKernel(tensor).gather(ids)
        np.testing.assert_array_equal(got, tensor.dequantize(np.float64)[ids])
        assert (got[1, 0], got[1, -1], got[0, -1], got[2, 0]) == (5.0, -5.0, 4.0, -4.0)

    def test_duplicate_unsorted_and_nd_ids(self):
        rng = derive_rng(20260807, "gather-ids")
        tensor = make_tensor(rng, (17, 11), 3, 0.1)
        kernel, table = LookupKernel(tensor), tensor.dequantize(np.float64)
        for ids in ([4, 4, 1, 16, 0, 4], [[3, 2], [2, 3]], np.int32(7), np.uint8([9, 1])):
            got = kernel.gather(ids)
            assert got.shape == (*np.shape(ids), 11)
            np.testing.assert_array_equal(got, table[np.asarray(ids)])
        assert kernel.gather(np.zeros((0, 4), dtype=np.int64)).shape == (0, 4, 11)

    @pytest.mark.parametrize(("ids", "error"), [
        ([0, 17], IndexError), ([-1], IndexError), ([2**40], IndexError),
        ([1.0], TypeError), ([True], TypeError),
    ])
    def test_bad_ids_raise_what_embedding_raises(self, ids, error):
        from repro.nn import Embedding

        rng = derive_rng(20260807, "gather-bad")
        tensor = make_tensor(rng, (17, 11), 3, 0.1)
        with pytest.raises(error):
            LookupKernel(tensor).gather(np.array(ids))
        with pytest.raises(error):
            Embedding(17, 11, rng=0)(np.array(ids))

    def test_counts_its_own_calls_not_the_matmuls(self):
        from repro import obs

        rng = derive_rng(20260807, "gather-obs")
        kernel = LookupKernel(make_tensor(rng, (17, 11), 3, 0.1))
        with obs.scope() as trace:
            kernel.gather(np.array([[1, 2, 3], [4, 5, 6]]))
        names = [event["name"] for event in trace.events]
        assert names == ["kernels.lookup_gather_calls", "kernels.lookup_gather_rows"]
        assert trace.events[1]["value"] == 6


def layout_bytes(bits: int, shape: tuple[int, int], group: int) -> int:
    """Index array plus tuple table for ``group`` codes per index: the
    selection rule's byte count, restated independently of the kernel."""
    rows, cols = shape
    index_item = 1 if group * bits <= 8 else 2
    return rows * -(-cols // group) * index_item + (1 << (group * bits)) * group * 8


class TestGroupedDecode:
    """One gather element carries ``group`` codes: 4 on 768-wide 3-bit
    layers, 2 on tiny-bert's 64-wide ones, 1 where a tuple table would not
    fit in one byte per weight.  Odd widths pad each row with code 0."""

    @pytest.mark.parametrize("bits, shape, group", [
        (3, (24, 31), 1),
        (3, (64, 64), 2),
        (3, (64, 63), 2),
        (3, (768, 768), 4),
        (3, (768, 767), 4),
        (2, (128, 128), 4),
        (2, (128, 127), 4),
    ])
    def test_bit_exact_at_each_group_size(self, bits, shape, group):
        rng = derive_rng(20260807, "kernel-grouped", bits, *shape)
        tensor = make_tensor(rng, shape, bits, 0.05, dyadic=True)
        kernel = LookupKernel(tensor)
        assert kernel.group == group
        for rows in (1, 17):
            x = rng.integers(-8, 9, size=(rows, shape[1])).astype(np.float64)
            np.testing.assert_array_equal(kernel.matmul(x), dequantize_matmul(x, tensor))

    def test_rule_boundary(self):
        """A 3-bit 512x512 index plus table is exactly one byte per weight,
        which fits; one column fewer does not, and drops to pairs."""
        assert layout_bytes(3, (512, 512), 4) == 512 * 512
        assert group_size(3, (512, 512)) == 4
        assert group_size(3, (512, 511)) == 2

    @pytest.mark.parametrize("chunk_rows", [1, 3, 100])
    def test_padded_rows_chunked(self, monkeypatch, chunk_rows):
        """Outlier positions are remapped to the padded row stride, so every
        band boundary must still land each outlier on its own weight."""
        rng = derive_rng(20260807, "kernel-grouped-chunk", chunk_rows)
        tensor = make_tensor(rng, (64, 63), 3, 0.3, dyadic=True)
        kernel = LookupKernel(tensor)
        assert kernel.group == 2
        monkeypatch.setattr(lookup_module, "_TILE_BYTES", 64 * 8 * chunk_rows)
        for batch in (1, 17):
            x = rng.integers(-8, 9, size=(batch, 63)).astype(np.float64)
            np.testing.assert_array_equal(kernel.matmul(x), dequantize_matmul(x, tensor))

    @given(
        bits=st.integers(min_value=1, max_value=16),
        rows=st.sampled_from([0, 1, 2, 7, 24, 64, 128, 512, 768]),
        cols=st.sampled_from([0, 1, 3, 31, 63, 64, 127, 511, 512, 767, 768]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_selection_rule(self, bits, rows, cols, seed):
        """The kernel's index plus table never exceed one byte per weight
        when it groups codes, no larger allowed group would have fit, and
        the grouped decode is still bit-exact."""
        group = group_size(bits, (rows, cols))
        for larger in (4, 2):
            if larger > group and larger * bits <= 16:
                assert layout_bytes(bits, (rows, cols), larger) > rows * cols
        rng = np.random.default_rng(seed)
        tensor = make_tensor(rng, (rows, cols), bits, 0.05, dyadic=True)
        kernel = LookupKernel(tensor)
        assert kernel.group == group
        if group > 1:
            resident = kernel._index.nbytes + kernel._table.nbytes
            assert resident == layout_bytes(bits, (rows, cols), group)
            assert resident <= rows * cols
        x = rng.integers(-8, 9, size=(2, cols)).astype(np.float64)
        np.testing.assert_array_equal(kernel.matmul(x), dequantize_matmul(x, tensor))

    def test_concurrent_calls_share_one_grouped_kernel(self, monkeypatch):
        _check_concurrent_calls(monkeypatch, "kernel-threads-g4", (128, 127), 2, group=4)
