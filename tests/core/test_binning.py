"""Tests for centroid initialization and assignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binning import (
    assign_to_centroids,
    equal_population_centroids,
    linear_centroids,
)
from repro.errors import QuantizationError


class TestEqualPopulationCentroids:
    def test_count_and_order(self, rng):
        centroids = equal_population_centroids(rng.normal(size=10000), 8)
        assert centroids.size == 8
        assert np.all(np.diff(centroids) >= 0)

    def test_equal_population(self, rng):
        values = rng.normal(size=8000)
        centroids = equal_population_centroids(values, 8)
        assignment = assign_to_centroids(values, centroids)
        counts = np.bincount(assignment, minlength=8)
        # Populations are approximately equal by construction.
        assert counts.min() > 0.7 * counts.max()

    def test_dense_regions_get_more_centroids(self, rng):
        values = rng.normal(0, 1.0, size=10000)
        centroids = equal_population_centroids(values, 8)
        # More than half the centroids within 1 sigma of the mean.
        assert (np.abs(centroids) < 1.0).sum() >= 5

    def test_fewer_distinct_values_than_bins(self):
        centroids = equal_population_centroids(np.array([1.0, 2.0]), 4)
        assert centroids.size == 4
        assert set(np.round(centroids, 6)) <= {1.0, 1.5, 2.0}

    def test_single_value(self):
        centroids = equal_population_centroids(np.full(10, 3.0), 4)
        np.testing.assert_array_equal(centroids, np.full(4, 3.0))

    def test_tied_bins_rounding_out_of_order_stay_sorted(self):
        # Bin means of 2 and 3 copies of 0.7 are 0.7 and 0.6999999999999998.
        centroids = equal_population_centroids(np.full(5, 0.7), 2)
        assert np.all(np.diff(centroids) >= 0)
        assert set(centroids.tolist()) == {0.7, 0.6999999999999998}

    def test_empty_rejected(self):
        with pytest.raises(QuantizationError):
            equal_population_centroids(np.array([]), 4)

    def test_invalid_bins_rejected(self):
        with pytest.raises(QuantizationError):
            equal_population_centroids(np.ones(4), 0)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10000))
    @settings(max_examples=30, deadline=None)
    def test_centroids_within_value_range(self, bits, seed):
        values = np.random.default_rng(seed).normal(size=200)
        centroids = equal_population_centroids(values, 1 << bits)
        assert centroids.min() >= values.min() - 1e-12
        assert centroids.max() <= values.max() + 1e-12

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=5000),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_bit_identical_to_per_bin_mean(self, seed, size, bits):
        """The init divides each bin's sum by its count; that must round
        exactly as ``ndarray.mean`` did, or archives would change."""
        values = np.random.default_rng(seed).standard_t(3, size=size)
        ordered = np.sort(values)
        edges = np.linspace(0, size, (1 << bits) + 1).round().astype(np.int64)
        expected, previous = [], ordered[0]
        for lo, hi in zip(edges[:-1], edges[1:]):
            if hi > lo:
                previous = ordered[lo:hi].mean()
            expected.append(previous)
        centroids = equal_population_centroids(values, 1 << bits)
        assert centroids.tobytes() == np.array(expected).tobytes()


class TestLinearCentroids:
    def test_uniform_spacing(self, rng):
        values = rng.uniform(-1, 1, size=1000)
        centroids = linear_centroids(values, 4)
        gaps = np.diff(centroids)
        np.testing.assert_allclose(gaps, gaps[0])

    def test_bin_centers_cover_range(self):
        centroids = linear_centroids(np.array([0.0, 8.0]), 4)
        np.testing.assert_allclose(centroids, [1.0, 3.0, 5.0, 7.0])

    def test_constant_values(self):
        np.testing.assert_array_equal(linear_centroids(np.full(5, 2.0), 4), np.full(4, 2.0))

    def test_ignores_distribution(self, rng):
        skewed = np.concatenate([rng.normal(0, 0.01, 10000), [1.0]])
        centroids = linear_centroids(skewed, 8)
        # Linear wastes most centroids on the empty range toward 1.0.
        assert (centroids > 0.1).sum() >= 6


class TestAssignToCentroids:
    def test_nearest_assignment(self):
        centroids = np.array([0.0, 1.0, 2.0])
        values = np.array([-5.0, 0.4, 0.6, 1.6, 99.0])
        np.testing.assert_array_equal(
            assign_to_centroids(values, centroids), [0, 0, 1, 2, 2]
        )

    def test_matches_bruteforce(self, rng):
        values = rng.normal(size=500)
        centroids = np.sort(rng.normal(size=8))
        fast = assign_to_centroids(values, centroids)
        brute = np.argmin(np.abs(values[:, None] - centroids[None, :]), axis=1)
        np.testing.assert_array_equal(fast, brute)

    def test_single_centroid(self, rng):
        assignment = assign_to_centroids(rng.normal(size=10), np.array([0.5]))
        np.testing.assert_array_equal(assignment, np.zeros(10))

    def test_empty_centroids_rejected(self, rng):
        with pytest.raises(QuantizationError):
            assign_to_centroids(rng.normal(size=4), np.array([]))

    @given(st.integers(min_value=0, max_value=10000))
    @settings(max_examples=30, deadline=None)
    def test_l1_and_l2_nearest_coincide_in_1d(self, seed):
        """In 1-D the nearest centroid under L1 and L2 is identical."""
        gen = np.random.default_rng(seed)
        values = gen.normal(size=100)
        centroids = np.sort(gen.normal(size=4))
        assignment = assign_to_centroids(values, centroids)
        l2 = np.argmin((values[:, None] - centroids[None, :]) ** 2, axis=1)
        np.testing.assert_array_equal(assignment, l2)
