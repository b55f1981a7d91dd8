"""Tests for the weight initializers."""

import threading

import numpy as np
import pytest

from repro.nn.init import normal, ones, skip_draws, zeros


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


class TestSkipDraws:
    def test_zeros_inside_draws_after(self):
        with skip_draws():
            assert not normal((3, 4), rng=0).any()
        np.testing.assert_array_equal(normal((3, 4), rng=0), normal((3, 4), rng=0))
        assert normal((3, 4), rng=0).any()

    def test_other_threads_still_draw(self):
        drawn = []
        with skip_draws():
            thread = threading.Thread(target=lambda: drawn.append(normal((4,), rng=1)))
            thread.start()
            thread.join()
        assert drawn[0].any()


class TestConstants:
    def test_zeros(self):
        assert not zeros((3, 2)).any()

    def test_ones(self):
        assert (ones((4,)) == 1.0).all()
