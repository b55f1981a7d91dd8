"""GOBO's index stream is near maximal entropy, so fixed-width packed codes
leave almost nothing for a Huffman stage (Deep Compression's follow-up to
its K-Means codes) to reclaim."""

import numpy as np
import pytest

from repro.core.binning import assign_to_centroids, linear_centroids
from repro.core.clustering import gobo_cluster


def huffman_headroom_bits(assignment: np.ndarray, bits: int) -> float:
    """Bits per weight an ideal entropy coder could still save."""
    counts = np.bincount(np.asarray(assignment).ravel(), minlength=1 << bits)
    probabilities = counts[counts > 0] / counts.sum()
    return bits + float((probabilities * np.log2(probabilities)).sum())


class TestGoboCodesNearMaxEntropy:
    """The design property: equal-population codes leave no Huffman headroom."""

    @pytest.fixture(scope="class")
    def gaussian(self):
        return np.random.default_rng(0).normal(0, 0.04, size=100_000)

    def test_gobo_codes_nearly_uniform(self, gaussian):
        # The L1 iteration drifts the outer bins a little off equal
        # population, but the stream stays within ~0.1 bit of maximal.
        result = gobo_cluster(gaussian, bits=3)
        assert huffman_headroom_bits(result.assignment, bits=3) < 0.15

    def test_linear_codes_far_from_uniform(self, gaussian):
        """Uniform-interval codes on a Gaussian are heavily skewed —
        Deep Compression's reason for a Huffman stage."""
        centroids = linear_centroids(gaussian, 8)
        assignment = assign_to_centroids(gaussian, centroids)
        assert huffman_headroom_bits(assignment, bits=3) > 0.3

    def test_gobo_headroom_below_linear(self, gaussian):
        gobo = huffman_headroom_bits(gobo_cluster(gaussian, 3).assignment, 3)
        centroids = linear_centroids(gaussian, 8)
        linear = huffman_headroom_bits(assign_to_centroids(gaussian, centroids), 3)
        assert gobo < linear
