"""Tests for weight histograms."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.stats.histogram import weight_histogram


class TestWeightHistogram:
    def test_counts_sum_to_total(self, rng):
        hist = weight_histogram(rng.normal(size=1234), bins=32)
        assert hist.total == 1234

    def test_centers_between_edges(self, rng):
        hist = weight_histogram(rng.normal(size=100), bins=10)
        assert len(hist.centers) == 10
        assert np.all(hist.centers > hist.edges[:-1])
        assert np.all(hist.centers < hist.edges[1:])

    def test_normalized_sums_to_one(self, rng):
        hist = weight_histogram(rng.normal(size=500))
        assert hist.normalized().sum() == pytest.approx(1.0)

    def test_normalized_empty_range(self):
        hist = weight_histogram(np.array([5.0]), bins=4, value_range=(0.0, 1.0))
        assert hist.normalized().sum() == 0.0

    def test_as_series(self, rng):
        series = weight_histogram(rng.normal(size=100), bins=5).as_series()
        assert len(series) == 5
        assert all(isinstance(c, float) and isinstance(n, int) for c, n in series)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            weight_histogram(np.array([]))
