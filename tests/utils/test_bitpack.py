"""Tests for dense bit packing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.bitpack import (
    _pack_bits_bitmatrix,
    _unpack_bits_bitmatrix,
    pack_bits,
    packed_nbytes,
    unpack_bits,
)
from repro.utils.rng import derive_rng


class TestPackedNbytes:
    def test_exact_multiples(self):
        assert packed_nbytes(8, 3) == 3  # 24 bits

    def test_rounds_up(self):
        assert packed_nbytes(3, 3) == 2  # 9 bits -> 2 bytes

    def test_zero_count(self):
        assert packed_nbytes(0, 5) == 0

    def test_one_bit(self):
        assert packed_nbytes(9, 1) == 2

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            packed_nbytes(-1, 3)

    @pytest.mark.parametrize("bits", [0, 17, -2])
    def test_invalid_bits_rejected(self, bits):
        with pytest.raises(ValueError):
            packed_nbytes(4, bits)


class TestRoundTrip:
    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 5, 6, 7, 8, 12, 16])
    def test_round_trip_all_widths(self, bits, rng):
        values = rng.integers(0, 1 << bits, size=1000)
        packed = pack_bits(values, bits)
        assert len(packed) == packed_nbytes(1000, bits)
        recovered = unpack_bits(packed, bits, 1000)
        np.testing.assert_array_equal(recovered, values)

    def test_empty(self):
        assert unpack_bits(pack_bits(np.array([], dtype=np.int64), 3), 3, 0).size == 0

    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_empty_round_trip_all_widths(self, bits):
        packed = pack_bits(np.array([], dtype=np.int64), bits)
        assert packed == b""
        recovered = unpack_bits(packed, bits, 0)
        assert recovered.size == 0
        assert recovered.dtype == np.int64

    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_single_value_all_widths(self, bits):
        value = (1 << bits) - 1
        packed = pack_bits(np.array([value]), bits)
        assert len(packed) == 1
        assert unpack_bits(packed, bits, 1).tolist() == [value]

    def test_max_values(self):
        values = np.full(17, 7)
        assert unpack_bits(pack_bits(values, 3), 3, 17).tolist() == [7] * 17

    def test_preserves_2d_input_flattened(self, rng):
        values = rng.integers(0, 8, size=(13, 7))
        recovered = unpack_bits(pack_bits(values, 3), 3, values.size)
        np.testing.assert_array_equal(recovered, values.ravel())

    def test_value_too_large_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            pack_bits(np.array([8]), 3)

    def test_negative_values_rejected(self):
        """-1 must not wrap through the unsigned conversion (it used to
        surface as 'value 18446744073709551615 does not fit in 3 bits')."""
        with pytest.raises(ValueError, match="non-negative"):
            pack_bits(np.array([0, -1, 3]), 3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_dtypes_rejected(self, dtype):
        """Floats must not be silently truncated."""
        with pytest.raises(TypeError, match="integer array"):
            pack_bits(np.array([1.5, 2.0], dtype=dtype), 3)

    def test_float_list_rejected(self):
        with pytest.raises(TypeError, match="integer array"):
            pack_bits([0.5, 1.0], 3)

    def test_bool_values_accepted(self):
        values = np.array([True, False, True, True])
        assert unpack_bits(pack_bits(values, 1), 1, 4).tolist() == [1, 0, 1, 1]

    def test_short_buffer_rejected(self):
        with pytest.raises(ValueError, match="need"):
            unpack_bits(b"\x00", 8, 5)

    @given(
        st.lists(st.integers(min_value=0, max_value=7), max_size=200),
        st.integers(min_value=3, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, values, bits):
        array = np.array(values, dtype=np.int64)
        recovered = unpack_bits(pack_bits(array, bits), bits, len(values))
        assert recovered.tolist() == values

    @given(st.integers(min_value=0, max_value=5000), st.integers(min_value=1, max_value=16))
    @settings(max_examples=50, deadline=None)
    def test_packed_size_is_ceiling(self, count, bits):
        assert packed_nbytes(count, bits) == -(-count * bits // 8)


class TestRandomizedRoundTrip:
    """Property-style round trips over the GOBO operating range.

    Widths 1-8 (the quantizer's accepted range), lengths 0-4096, seeded via
    :mod:`repro.utils.rng` so every run exercises the same cases.
    """

    CASES_PER_WIDTH = 32

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_pack_unpack_identity(self, bits):
        rng = derive_rng(20260806, "bitpack-roundtrip", bits)
        for case in range(self.CASES_PER_WIDTH):
            count = int(rng.integers(0, 4097))
            values = rng.integers(0, 1 << bits, size=count)
            packed = pack_bits(values, bits)
            recovered = unpack_bits(packed, bits, count)
            np.testing.assert_array_equal(
                recovered, values, err_msg=f"bits={bits} case={case} count={count}"
            )

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_packed_size_formula_exact(self, bits):
        """len(pack_bits(..)) is exactly ceil(count * bits / 8), no padding."""
        rng = derive_rng(20260806, "bitpack-size", bits)
        counts = [0, 1, 7, 8, 9, 4096] + [int(c) for c in rng.integers(0, 4097, size=16)]
        for count in counts:
            values = rng.integers(0, 1 << bits, size=count)
            packed = pack_bits(values, bits)
            assert len(packed) == (count * bits + 7) // 8 == packed_nbytes(count, bits)

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_boundary_values_survive(self, bits):
        """All-zeros and all-max streams round-trip at every width."""
        for value in (0, (1 << bits) - 1):
            values = np.full(4096, value, dtype=np.int64)
            recovered = unpack_bits(pack_bits(values, bits), bits, values.size)
            np.testing.assert_array_equal(recovered, values)


class TestFastPathEquivalence:
    """The grouped fast path must emit byte-identical streams to the
    bit-matrix reference at every width, so archives written before the
    vectorization load unchanged (and vice versa)."""

    @pytest.mark.parametrize("bits", range(1, 17))
    def test_pack_matches_reference(self, bits):
        """Every length around a group (``per_group`` values) and every
        integer dtype the codes can arrive in: the packer casts and shifts
        inside one ufunc call, so no dtype may overflow before its shift."""
        rng = derive_rng(20260807, "bitpack-fast-pack", bits)
        per_group = 8 // math.gcd(bits, 8)
        counts = {0, 1, 2, 7, 8, 9, 63, 64, 65, 1000}
        counts |= {per_group - 1, per_group, per_group + 1, 4099 * per_group + 3}
        dtypes = [np.int64, np.uint64, np.int32, np.uint16]
        dtypes += [np.uint8] if bits <= 8 else []
        dtypes += [np.bool_] if bits == 1 else []
        for count in sorted(counts):
            values = rng.integers(0, 1 << bits, size=count)
            values[: min(count, 3)] = (1 << bits) - 1  # every bit of a group set
            reference = _pack_bits_bitmatrix(
                np.ascontiguousarray(values, dtype=np.uint64), bits
            )
            for dtype in dtypes:
                packed = pack_bits(values.astype(dtype), bits)
                assert packed == reference, f"bits={bits} count={count} dtype={dtype}"
            np.testing.assert_array_equal(unpack_bits(reference, bits, count), values)

    @pytest.mark.parametrize("bits", range(1, 17))
    def test_unpack_matches_reference(self, bits):
        rng = derive_rng(20260807, "bitpack-fast-unpack", bits)
        for count in (0, 1, 2, 7, 8, 9, 63, 64, 65, 1000):
            values = rng.integers(0, 1 << bits, size=count)
            packed = pack_bits(values, bits)
            raw = np.frombuffer(packed, dtype=np.uint8)
            recovered = unpack_bits(packed, bits, count)
            reference = _unpack_bits_bitmatrix(raw, bits, count)
            np.testing.assert_array_equal(recovered, reference)
            assert recovered.dtype == np.int64
