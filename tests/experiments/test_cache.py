"""Tests for the checkpoint cache."""

import warnings

import numpy as np
import pytest

from repro.experiments import cache
from repro.testing.faults import corrupt_bytes


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    yield tmp_path


class TestCache:
    def test_round_trip(self, rng):
        state = {"a.weight": rng.normal(size=(3, 4)), "b": rng.normal(size=5)}
        cache.save_state("model-task", state, {"baseline": 0.9})
        loaded, scores = cache.load_state("model-task")
        assert set(loaded) == {"a.weight", "b"}
        np.testing.assert_array_equal(loaded["a.weight"], state["a.weight"])
        assert scores["baseline"] == 0.9

    def test_loaded_arrays_are_copies_not_map_views(self, rng):
        cache.save_state("owned", {"x": rng.normal(size=(4, 4))})
        loaded, _ = cache.load_state("owned")
        assert loaded["x"].flags.writeable  # a view of the read-only map is not

    def test_flipped_data_byte_fails_its_crc(self, rng):
        cache.save_state("rot", {"x": rng.normal(size=64)})
        path = cache.checkpoint_path("rot")
        corrupt_bytes(path, path.stat().st_size // 4)
        with pytest.warns(cache.CacheCorruptionWarning, match="CRC"):
            assert cache.load_state("rot") is None
        assert not path.exists()

    def test_missing_returns_none(self):
        assert cache.load_state("never-saved") is None

    def test_key_sanitized(self, rng):
        cache.save_state("weird/key with spaces", {"x": rng.normal(size=2)})
        assert cache.load_state("weird/key with spaces") is not None

    def test_corrupt_file_returns_none(self, isolated_cache):
        path = cache.checkpoint_path("corrupt")
        path.write_bytes(b"not an npz")
        with pytest.warns(cache.CacheCorruptionWarning):
            assert cache.load_state("corrupt") is None

    def test_corrupt_file_deleted_so_next_run_retrains(self):
        path = cache.checkpoint_path("corrupt")
        path.write_bytes(b"not an npz")
        with pytest.warns(cache.CacheCorruptionWarning, match="corrupt"):
            cache.load_state("corrupt")
        assert not path.exists()
        # Second lookup is the silent missing case, not a second warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.load_state("corrupt") is None

    def test_truncated_checkpoint_detected(self, rng):
        cache.save_state("torn", {"x": rng.normal(size=64)})
        path = cache.checkpoint_path("torn")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.warns(cache.CacheCorruptionWarning):
            assert cache.load_state("torn") is None
        assert not path.exists()

    def test_parameterless_archive_treated_as_corrupt(self):
        np.savez(cache.checkpoint_path("hollow"), **{"score::only": np.float64(1.0)})
        with pytest.warns(cache.CacheCorruptionWarning, match="no parameters"):
            assert cache.load_state("hollow") is None

    def test_missing_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.load_state("never-saved") is None

    def test_save_leaves_no_temporaries(self, isolated_cache, rng):
        cache.save_state("clean", {"x": rng.normal(size=8)})
        assert [p.name for p in isolated_cache.iterdir()] == ["clean.npz"]

    def test_empty_key_rejected(self):
        with pytest.raises(Exception):
            cache.checkpoint_path("")


class TestCacheObservability:
    """The cache emits hit/miss/corrupt-evict counters and byte counts."""

    def test_miss_hit_and_bytes(self, rng):
        from repro import obs

        with obs.scope() as scoped:
            assert cache.load_state("fresh") is None
            cache.save_state("fresh", {"x": rng.normal(size=16)})
            assert cache.load_state("fresh") is not None
        snapshot = scoped.snapshot()
        assert snapshot.counter("cache.miss") == 1
        assert snapshot.counter("cache.hit") == 1
        assert snapshot.counter("cache.saved") == 1
        size = cache.checkpoint_path("fresh").stat().st_size
        assert snapshot.counter("cache.bytes_written") == size
        assert snapshot.counter("cache.bytes_read") == size

    def test_corrupt_evict_counted(self):
        from repro import obs

        cache.checkpoint_path("bad").write_bytes(b"not an npz")
        with obs.scope() as scoped:
            with pytest.warns(cache.CacheCorruptionWarning):
                assert cache.load_state("bad") is None
        assert scoped.snapshot().counter("cache.corrupt_evict") == 1
        assert scoped.snapshot().counter("cache.hit") == 0


class TestCacheMetricSkew:
    """cache.hit / cache.bytes_read must count successful loads only."""

    def test_corrupt_load_contributes_no_read_metrics(self):
        from repro import obs

        cache.checkpoint_path("skewed").write_bytes(b"\x00" * 512)
        with obs.scope() as scoped:
            with pytest.warns(cache.CacheCorruptionWarning):
                assert cache.load_state("skewed") is None
        snapshot = scoped.snapshot()
        assert snapshot.counter("cache.corrupt_evict") == 1
        assert snapshot.counter("cache.hit") == 0
        assert snapshot.counter("cache.bytes_read") == 0

    def test_empty_archive_counts_as_corrupt_not_hit(self, rng):
        from repro import obs

        # An archive with no param:: entries parses but is useless.
        cache.save_state("scores-only", {"x": rng.normal(size=4)})
        import numpy as np

        from repro.utils.atomic import atomic_savez

        atomic_savez(cache.checkpoint_path("scores-only"),
                     {"score::acc": np.float64(0.5)})
        with obs.scope() as scoped:
            with pytest.warns(cache.CacheCorruptionWarning):
                assert cache.load_state("scores-only") is None
        snapshot = scoped.snapshot()
        assert snapshot.counter("cache.hit") == 0
        assert snapshot.counter("cache.bytes_read") == 0
        assert snapshot.counter("cache.corrupt_evict") == 1

    def test_bytes_read_matches_file_size_on_hit(self, rng):
        from repro import obs

        cache.save_state("sized", {"w": rng.normal(size=(8, 8))})
        size = cache.checkpoint_path("sized").stat().st_size
        with obs.scope() as scoped:
            assert cache.load_state("sized") is not None
        assert scoped.snapshot().counter("cache.bytes_read") == size
