"""Tests for tensor-level GOBO quantization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quantizer import quantize_tensor
from repro.errors import QuantizationError


def quantization_error(original, quantized) -> dict[str, float]:
    """Mean and max absolute reconstruction error, decoded at float64."""
    diff = np.abs(np.asarray(original, dtype=np.float64)
                  - quantized.dequantize(dtype=np.float64))
    return {"mean_abs": float(diff.mean()), "max_abs": float(diff.max())}


@pytest.fixture(scope="module")
def layer_weights():
    rng = np.random.default_rng(0)
    weights = rng.normal(0, 0.04, size=(300, 300))
    idx = rng.choice(weights.size, size=90, replace=False)
    flat = weights.ravel()
    flat[idx] = 0.5 * np.sign(rng.normal(size=90))
    return weights


class TestQuantizeTensor:
    def test_shape_preserved(self, layer_weights):
        quantized, _ = quantize_tensor(layer_weights, bits=3)
        assert quantized.shape == layer_weights.shape
        assert quantized.dequantize().shape == layer_weights.shape

    def test_outliers_stored_exactly(self, layer_weights):
        quantized, _ = quantize_tensor(layer_weights, bits=3)
        restored = quantized.dequantize(dtype=np.float64).ravel()
        original = layer_weights.ravel()
        np.testing.assert_array_equal(
            restored[quantized.outlier_positions], original[quantized.outlier_positions]
        )

    def test_g_weights_map_to_centroids(self, layer_weights):
        quantized, _ = quantize_tensor(layer_weights, bits=3)
        restored = quantized.dequantize(dtype=np.float64).ravel()
        mask = np.zeros(restored.size, dtype=bool)
        mask[quantized.outlier_positions] = True
        gaussian_restored = restored[~mask]
        assert set(np.unique(gaussian_restored)) <= set(quantized.centroids)

    def test_centroid_table_size(self, layer_weights):
        for bits in (2, 3, 4):
            quantized, _ = quantize_tensor(layer_weights, bits=bits)
            assert quantized.centroids.size == 1 << bits

    def test_counts_partition(self, layer_weights):
        quantized, _ = quantize_tensor(layer_weights, bits=3)
        assert quantized.gaussian_count + quantized.outlier_count == layer_weights.size
        assert 0 < quantized.outlier_fraction < 0.01

    def test_reconstruction_error_bounded_by_bin_spread(self, layer_weights):
        quantized, _ = quantize_tensor(layer_weights, bits=3)
        errors = quantization_error(layer_weights, quantized)
        assert errors["mean_abs"] < 0.01
        assert errors["max_abs"] < 0.08

    def test_more_bits_less_error(self, layer_weights):
        previous = np.inf
        for bits in (2, 3, 4, 5):
            quantized, _ = quantize_tensor(layer_weights, bits=bits)
            error = quantization_error(layer_weights, quantized)["mean_abs"]
            assert error < previous
            previous = error

    def test_compression_ratio_near_potential(self, layer_weights):
        quantized, _ = quantize_tensor(layer_weights, bits=3)
        # 32/3 = 10.67 potential; overheads cost a little.
        assert 9.0 < quantized.compression_ratio() < 10.67

    def test_methods_share_outliers(self, layer_weights):
        gobo, _ = quantize_tensor(layer_weights, bits=3, method="gobo")
        kmeans, _ = quantize_tensor(layer_weights, bits=3, method="kmeans")
        linear, _ = quantize_tensor(layer_weights, bits=3, method="linear")
        np.testing.assert_array_equal(gobo.outlier_positions, kmeans.outlier_positions)
        np.testing.assert_array_equal(gobo.outlier_positions, linear.outlier_positions)

    def test_gobo_beats_linear_on_gaussian_l1(self, layer_weights):
        gobo, _ = quantize_tensor(layer_weights, bits=3, method="gobo")
        linear, _ = quantize_tensor(layer_weights, bits=3, method="linear")
        gobo_err = quantization_error(layer_weights, gobo)["mean_abs"]
        linear_err = quantization_error(layer_weights, linear)["mean_abs"]
        assert gobo_err < 0.8 * linear_err

    def test_unknown_method_rejected(self, layer_weights):
        with pytest.raises(QuantizationError):
            quantize_tensor(layer_weights, bits=3, method="magic")

    def test_empty_rejected(self):
        with pytest.raises(QuantizationError):
            quantize_tensor(np.array([]), bits=3)

    def test_1d_tensor(self, rng):
        weights = rng.normal(size=1000)
        quantized, _ = quantize_tensor(weights, bits=3)
        assert quantized.dequantize().shape == (1000,)

    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_properties(self, bits, seed):
        weights = np.random.default_rng(seed).normal(0, 0.05, size=600)
        quantized, _ = quantize_tensor(weights, bits=bits)
        restored = quantized.dequantize(dtype=np.float64)
        # Reconstruction never widens the value range.
        assert restored.min() >= weights.min() - 1e-12
        assert restored.max() <= weights.max() + 1e-12
        # Codes round-trip through the packed representation.
        assert quantized.codes().size == quantized.gaussian_count


class TestDequantizeDtype:
    def test_default_is_float32(self, layer_weights):
        quantized, _ = quantize_tensor(layer_weights, bits=3)
        assert quantized.dequantize().dtype == np.float32

    def test_dtype_parameter_honored(self, layer_weights):
        quantized, _ = quantize_tensor(layer_weights, bits=3)
        assert quantized.dequantize(dtype=np.float64).dtype == np.float64
        assert quantized.dequantize(dtype=np.float16).dtype == np.float16

    def test_float32_is_cast_of_float64(self, layer_weights):
        """The decode computes in float64 and casts once, so the float32
        output is exactly the rounded float64 reconstruction."""
        quantized, _ = quantize_tensor(layer_weights, bits=3)
        exact = quantized.dequantize(dtype=np.float64)
        np.testing.assert_array_equal(
            quantized.dequantize(), exact.astype(np.float32)
        )


class TestQuantizationError:
    def test_zero_for_lossless(self, rng):
        # 4 distinct values, 2-bit codes: exactly representable.
        weights = rng.choice([-0.2, -0.1, 0.1, 0.2], size=1000)
        quantized, _ = quantize_tensor(weights, bits=2)
        errors = quantization_error(weights, quantized)
        assert errors["max_abs"] == pytest.approx(0.0, abs=1e-12)
