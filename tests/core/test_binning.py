"""Tests for centroid initialization and assignment."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binning import (
    CACHE_BLOCK,
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


def searchsorted_reference(values, centroids):
    """The assignment every table width must reproduce: the count of
    midpoints strictly below each value, NaN above them all."""
    centroids = np.asarray(centroids, dtype=np.float64)
    midpoints = (centroids[:-1] + centroids[1:]) / 2.0
    return np.searchsorted(midpoints, np.asarray(values, dtype=np.float64).ravel(), side="left")


class TestAssignmentEqualsSearchsorted:
    """Counting midpoints gives the index ``searchsorted`` gives, for every
    value and every table width."""

    SIZES = (0, 1, 32, CACHE_BLOCK - 1, CACHE_BLOCK, CACHE_BLOCK + 1)

    @pytest.mark.parametrize("bits", range(1, 9))
    @pytest.mark.parametrize("size", SIZES)
    def test_every_width_and_block_edge(self, bits, size):
        gen = np.random.default_rng(bits * 1000 + size)
        centroids = np.sort(gen.normal(size=1 << bits))
        values = gen.normal(scale=1.5, size=size)
        got = assign_to_centroids(values, centroids)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, searchsorted_reference(values, centroids))

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_special_values(self, bits):
        """Values on a midpoint go to the lower centroid; ±0.0, ±inf and NaN
        land where ``searchsorted`` puts them, in every block position."""
        gen = np.random.default_rng(bits)
        centroids = np.sort(gen.normal(size=1 << bits))
        centroids[0], centroids[-1] = -0.0, max(centroids[-1], 0.0)
        centroids.sort()
        midpoints = (centroids[:-1] + centroids[1:]) / 2.0
        special = np.concatenate(
            [midpoints, centroids, [0.0, -0.0, np.inf, -np.inf, np.nan, np.nan]]
        )
        values = gen.normal(size=CACHE_BLOCK + 7)
        values[: special.size] = special
        values[-special.size :] = special
        got = assign_to_centroids(values, centroids)
        np.testing.assert_array_equal(got, searchsorted_reference(values, centroids))
        assert got[np.isnan(values)].tolist() == [centroids.size - 1] * 4

    @pytest.mark.parametrize("bits", [2, 3, 6, 8])
    def test_tied_and_duplicate_centroids(self, bits):
        gen = np.random.default_rng(bits + 40)
        centroids = np.sort(np.round(gen.normal(size=1 << bits), 1))
        centroids[1] = centroids[0]
        centroids[-3:] = centroids[-3]
        centroids.sort()
        values = np.concatenate([centroids, np.round(gen.normal(size=5000), 2)])
        np.testing.assert_array_equal(
            assign_to_centroids(values, centroids), searchsorted_reference(values, centroids)
        )

    @pytest.mark.parametrize("num_centroids", [255, 256, 257, 1024])
    def test_tables_around_the_uint8_counter(self, num_centroids):
        """Tables wider than 8 bits take wider counters and still count
        every midpoint."""
        gen = np.random.default_rng(num_centroids)
        centroids = np.sort(gen.normal(size=num_centroids))
        values = np.concatenate([gen.normal(scale=4.0, size=3000), [np.nan, np.inf]])
        got = assign_to_centroids(values, centroids)
        np.testing.assert_array_equal(got, searchsorted_reference(values, centroids))
        assert got.max() == num_centroids - 1

    def test_all_centroids_equal(self):
        centroids = np.full(8, 0.25)
        values = np.array([-1.0, 0.25, 0.25 + 1e-17, 1.0, np.nan])
        np.testing.assert_array_equal(
            assign_to_centroids(values, centroids), searchsorted_reference(values, centroids)
        )

    @given(
        bits=st.integers(1, 8),
        centroids=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, width=64), min_size=2, max_size=256
        ),
        values=st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True, width=64),
                st.sampled_from([0.0, -0.0, 0.5, -0.5]),
            ),
            max_size=300,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_property(self, bits, centroids, values):
        table = np.sort(np.resize(np.asarray(centroids, dtype=np.float64), 1 << bits))
        flat = np.asarray(values, dtype=np.float64)
        # Put some values exactly on the midpoints.
        midpoints = (table[:-1] + table[1:]) / 2.0
        flat = np.concatenate([flat, midpoints[: len(values) % 7]])
        np.testing.assert_array_equal(
            assign_to_centroids(flat, table), searchsorted_reference(flat, table)
        )

    def test_costs_at_most_half_a_searchsorted_at_3_bits(self):
        """The cost guard: on 1M N(0, 1) values and 8 centroids the count
        takes ≤ 0.5x one ``searchsorted`` of the same midpoints (min of 20
        interleaved timings each; ~0.15x measured, 1.0x with ``searchsorted``
        itself)."""
        gen = np.random.default_rng(2024)
        values = gen.normal(size=1 << 20)
        centroids = equal_population_centroids(values, 8)
        midpoints = (centroids[:-1] + centroids[1:]) / 2.0
        assign_s, search_s = [], []
        for _ in range(20):
            start = time.perf_counter()
            assign_to_centroids(values, centroids)
            middle = time.perf_counter()
            np.searchsorted(midpoints, values, side="left")
            assign_s.append(middle - start)
            search_s.append(time.perf_counter() - middle)
        assert min(assign_s) <= 0.5 * min(search_s)
