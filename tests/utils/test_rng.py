"""Tests for the RNG plumbing."""

import numpy as np
import pytest

from repro.utils.rng import derive_rng, ensure_rng


class TestEnsureRng:
    def test_int_seed_is_deterministic(self):
        a = ensure_rng(7).random(5)
        b = ensure_rng(7).random(5)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_numpy_integer_accepted(self):
        assert isinstance(ensure_rng(np.int64(3)), np.random.Generator)

    def test_rejects_strings(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")


class TestDeriveRng:
    def test_same_tags_same_stream(self):
        a = derive_rng(0, "layer", 3).random(4)
        b = derive_rng(0, "layer", 3).random(4)
        np.testing.assert_array_equal(a, b)

    def test_different_tags_differ(self):
        a = derive_rng(0, "layer", 3).random(4)
        b = derive_rng(0, "layer", 4).random(4)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = derive_rng(0, "x").random(4)
        b = derive_rng(1, "x").random(4)
        assert not np.array_equal(a, b)
