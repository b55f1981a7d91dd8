"""Tests for weight summaries and Gaussian-overlap scoring."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.stats.describe import gaussian_overlap, summarize_weights


class TestSummarizeWeights:
    def test_basic_fields(self, rng):
        data = rng.normal(1.0, 2.0, size=10000)
        summary = summarize_weights(data)
        assert summary.count == 10000
        assert summary.mean == pytest.approx(1.0, abs=0.1)
        assert summary.std == pytest.approx(2.0, abs=0.1)
        assert summary.minimum < summary.maximum

    def test_gaussian_has_low_kurtosis(self, rng):
        data = rng.normal(size=50000)
        assert abs(summarize_weights(data).excess_kurtosis) < 0.15

    def test_heavy_tails_raise_kurtosis(self, rng):
        data = rng.normal(size=50000)
        data[:100] *= 20  # inject a fringe
        assert summarize_weights(data).excess_kurtosis > 1.0

    def test_moments_pinned(self):
        """Population (biased) moments: m3 / m2**1.5 and m4 / m2**2 - 3."""
        summary = summarize_weights(np.array([0.0, 1.0, 2.0, 3.0, 10.0]))
        assert summary.skewness == pytest.approx(1.2099004414720482, rel=1e-12)
        assert summary.excess_kurtosis == pytest.approx(-0.12400097367033158, rel=1e-12)

    def test_range_in_sigmas(self):
        summary = summarize_weights(np.array([-1.0, 0.0, 1.0]))
        assert summary.range_in_sigmas == pytest.approx(2.0 / summary.std)

    def test_constant_data(self):
        summary = summarize_weights(np.full(10, 3.0))
        assert summary.std == 0.0
        assert summary.range_in_sigmas == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            summarize_weights(np.array([]))


class TestGaussianOverlap:
    def test_gaussian_scores_high(self, rng):
        assert gaussian_overlap(rng.normal(size=100000)) > 0.95

    def test_uniform_scores_lower(self, rng):
        uniform = rng.uniform(-1, 1, size=100000)
        assert gaussian_overlap(uniform) < gaussian_overlap(rng.normal(size=100000))

    def test_bimodal_scores_low(self, rng):
        bimodal = np.concatenate([rng.normal(-3, 0.1, 5000), rng.normal(3, 0.1, 5000)])
        assert gaussian_overlap(bimodal) < 0.6

    def test_constant_is_perfect(self):
        assert gaussian_overlap(np.full(100, 2.0)) == 1.0

    def test_pinned_value(self):
        overlap = gaussian_overlap(np.linspace(-1.0, 1.0, 101), bins=8)
        assert overlap == pytest.approx(0.9216524939098812, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            gaussian_overlap(np.array([]))
