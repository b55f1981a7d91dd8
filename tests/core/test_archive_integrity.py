"""Tests for durable storage: atomic writes, checksums, verify_archive."""

import gc
import os
import threading

import numpy as np
import pytest

from repro import obs
from repro.core.model_quantizer import quantize_model
from repro.core.serialization import (
    CHECKSUM_KEY,
    FORMAT_VERSION,
    load_quantized_model,
    payload_checksum,
    save_quantized_model,
    verify_archive,
)
from repro.errors import (
    ChecksumMismatchError,
    SerializationError,
    TruncatedArchiveError,
)
from repro.models.heads import BertForSequenceClassification
from repro.testing.faults import corrupt_bytes, truncate_file
from tests.conftest import MICRO_CONFIG


@pytest.fixture(scope="module")
def quantized():
    model = BertForSequenceClassification(MICRO_CONFIG, num_labels=3, rng=0)
    return quantize_model(model, weight_bits=3, embedding_bits=4)


@pytest.fixture
def archive(quantized, tmp_path):
    path = tmp_path / "model.npz"
    save_quantized_model(quantized, path)
    return path


class TestAtomicWrite:
    def test_no_temporary_files_left(self, quantized, tmp_path):
        save_quantized_model(quantized, tmp_path / "model.npz")
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]

    def test_overwrite_is_all_or_nothing(self, quantized, archive, tmp_path):
        """A failed re-save leaves the previous archive fully intact and
        cleans up its temporary file."""
        before = archive.read_bytes()

        class Explosive:
            def __array__(self, *args, **kwargs):
                raise RuntimeError("boom mid-write")

        from repro.utils.atomic import atomic_savez

        with pytest.raises(RuntimeError, match="boom"):
            atomic_savez(archive, {"x": Explosive()})
        assert archive.read_bytes() == before
        assert verify_archive(archive).ok
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]

    def test_reported_size_matches_file(self, quantized, tmp_path):
        size = save_quantized_model(quantized, tmp_path / "model.npz")
        assert size == (tmp_path / "model.npz").stat().st_size


class TestChecksum:
    def test_version_3_written_with_checksum(self, archive):
        with np.load(archive) as arrays:
            assert int(arrays["index::version"][0]) == FORMAT_VERSION == 3
            assert CHECKSUM_KEY in arrays.files
            assert arrays[CHECKSUM_KEY].size == 32  # SHA-256

    def test_checksum_is_deterministic(self, quantized, tmp_path):
        a = tmp_path / "a.npz"
        b = tmp_path / "b.npz"
        save_quantized_model(quantized, a)
        save_quantized_model(quantized, b)
        with np.load(a) as one, np.load(b) as two:
            np.testing.assert_array_equal(one[CHECKSUM_KEY], two[CHECKSUM_KEY])

    def test_payload_checksum_sensitive_to_renames(self, rng):
        data = rng.normal(size=8)
        assert payload_checksum({"a": data}) != payload_checksum({"b": data})

    def test_payload_checksum_sensitive_to_dtype(self):
        data = np.arange(4, dtype=np.float64)
        assert payload_checksum({"a": data}) != payload_checksum(
            {"a": data.astype(np.float32)}
        )


class TestVerifyArchive:
    def test_intact(self, archive):
        check = verify_archive(archive)
        assert check.ok and check.status == "ok" and check.version == 3
        assert "checksum verified" in check.detail

    def test_missing(self, tmp_path):
        check = verify_archive(tmp_path / "absent.npz")
        assert not check.ok and check.status == "missing"

    def test_directory_is_missing(self, tmp_path):
        """A directory used to reach ``open()`` and raise IsADirectoryError."""
        check = verify_archive(tmp_path)
        assert not check.ok and check.status == "missing"
        assert check.detail == "not a regular file"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_fifo_is_missing_without_opening_it(self, tmp_path):
        """Opening a FIFO with no writer blocks, so the check runs on a
        thread that must finish."""
        fifo = tmp_path / "model.npz"
        os.mkfifo(fifo)
        checks = []
        worker = threading.Thread(
            target=lambda: checks.append(verify_archive(fifo)), daemon=True)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive(), "verify_archive blocked opening a FIFO"
        assert checks[0].status == "missing" and checks[0].detail == "not a regular file"

    def test_unreadable_file_is_missing_with_the_os_error(self, archive, monkeypatch):
        from repro.core import serialization

        def denied(path, lazy, verify):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(serialization, "_load", denied)
        check = verify_archive(archive)
        assert not check.ok and check.status == "missing"
        assert "Permission denied" in check.detail

    def test_truncated(self, archive):
        truncate_file(archive, 0.6)
        check = verify_archive(archive)
        assert not check.ok and check.status == "truncated"

    def test_empty_file_is_truncated(self, tmp_path):
        path = tmp_path / "empty.npz"
        path.write_bytes(b"")
        assert verify_archive(path).status == "truncated"

    def test_garbage_is_truncated(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"definitely not a zip archive")
        assert verify_archive(path).status == "truncated"

    def test_bit_flip_in_data_is_checksum_mismatch(self, archive):
        corrupt_bytes(archive, archive.stat().st_size // 2)
        check = verify_archive(archive)
        assert check.status == "checksum-mismatch"

    def test_future_version_unknown(self, tmp_path):
        path = tmp_path / "future.npz"
        np.savez(path, **{"index::version": np.array([99], dtype=np.int64)})
        check = verify_archive(path)
        assert check.status == "version-unknown" and check.version == 99

    def test_legacy_v2_ok_unchecksummed(self, tmp_path):
        path = tmp_path / "v2.npz"
        np.savez(path, **{
            "index::version": np.array([2], dtype=np.int64),
            "index::fc": np.array([], dtype=np.str_),
            "index::embeddings": np.array([], dtype=np.str_),
        })
        check = verify_archive(path)
        assert check.ok and check.status == "ok-unchecksummed" and check.version == 2


class TestLoadRejectsCorruption:
    def test_truncated_raises_typed_error(self, archive):
        truncate_file(archive, 0.5)
        with pytest.raises(TruncatedArchiveError):
            load_quantized_model(archive)

    def test_bit_flip_raises_checksum_error(self, archive):
        corrupt_bytes(archive, archive.stat().st_size // 2)
        with pytest.raises(ChecksumMismatchError):
            load_quantized_model(archive)

    def test_both_are_serialization_errors(self, archive):
        """Existing except-SerializationError callers keep working."""
        truncate_file(archive, 10)
        with pytest.raises(SerializationError):
            load_quantized_model(archive)

    def test_v3_without_checksum_rejected(self, tmp_path):
        path = tmp_path / "bad3.npz"
        np.savez(path, **{
            "index::version": np.array([3], dtype=np.int64),
            "index::fc": np.array([], dtype=np.str_),
            "index::embeddings": np.array([], dtype=np.str_),
        })
        with pytest.raises(ChecksumMismatchError, match="no checksum"):
            load_quantized_model(path)

    def test_legacy_v2_loads_without_checksum(self, quantized, tmp_path):
        """Backward compatibility: a v2 archive (same layout, no checksum)
        still loads its tensors."""
        path = tmp_path / "model.npz"
        save_quantized_model(quantized, path)
        with np.load(path) as arrays:
            payload = {k: arrays[k] for k in arrays.files if k != CHECKSUM_KEY}
        payload["index::version"] = np.array([2], dtype=np.int64)
        legacy = tmp_path / "legacy.npz"
        np.savez(legacy, **payload)
        loaded = load_quantized_model(legacy)
        assert set(loaded.quantized) == set(quantized.quantized)
        name = next(iter(quantized.quantized))
        np.testing.assert_array_equal(
            loaded.quantized[name].codes(), quantized.quantized[name].codes()
        )


class TestEagerLoadOwnsItsBytes:
    """An eager load reads through the same memory map as a lazy one, then
    copies what it keeps and closes the reader."""

    def test_result_holds_no_view_of_the_map(self, archive):
        model = load_quantized_model(archive)
        for tensor in model.quantized.values():
            assert type(tensor.packed_codes) is bytes
            for array in (tensor.centroids, tensor.outlier_positions, tensor.outlier_values):
                assert array.flags.owndata
        assert all(value.flags.owndata for value in model.fp32.values())

    def test_file_rewritten_then_truncated_after_the_load(self, archive):
        """A view into the map would read the rewritten bytes (checked
        first), and would take a SIGBUS once the file is truncated."""
        model = load_quantized_model(archive)
        before = model.state_dict()
        with open(archive, "r+b") as handle:
            data = handle.read()
            handle.seek(0)
            handle.write(bytes(b ^ 0xFF for b in data))
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[name], err_msg=name)
        with open(archive, "r+b") as handle:
            handle.truncate(0)
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[name], err_msg=name)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc (Linux)")
    def test_loads_and_verifies_leave_no_descriptor_open(self, archive):
        gc.collect()
        baseline = len(os.listdir("/proc/self/fd"))
        for _ in range(20):
            load_quantized_model(archive)
            assert verify_archive(archive).ok
        assert len(os.listdir("/proc/self/fd")) <= baseline

    def test_counts_npzmap_reads_and_no_lazy_decodes(self, archive):
        with obs.scope() as scoped:
            load_quantized_model(archive)
        snapshot = scoped.snapshot()
        assert snapshot.counter("serialization.archives_read") == 1
        assert snapshot.counter("serialization.bytes_read") == archive.stat().st_size
        assert snapshot.counter("npzmap.members_read") > 0
        assert snapshot.counter("serialization.lazy_layers_decoded") == 0
        assert not [e for e in scoped.events if e["name"] == "serialization.lazy_layer"]
