"""Tests for the weight initializers."""

import numpy as np
import pytest

from repro.nn.init import normal, ones, zeros


class TestNormal:
    def test_statistics(self):
        samples = normal((200, 200), std=0.05, rng=0)
        assert samples.std() == pytest.approx(0.05, rel=0.05)
        assert samples.mean() == pytest.approx(0.0, abs=0.002)

    def test_deterministic(self):
        np.testing.assert_array_equal(normal((4, 4), rng=7), normal((4, 4), rng=7))

    def test_has_tails(self):
        samples = normal((400, 400), std=1.0, rng=0)
        assert np.abs(samples).max() > 3.5  # a pure normal reaches its tails


class TestConstants:
    def test_zeros(self):
        assert not zeros((3, 2)).any()

    def test_ones(self):
        assert (ones((4,)) == 1.0).all()
