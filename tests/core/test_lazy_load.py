"""Zero-copy lazy loading: mmap views, on-demand decode, bytes-touched.

Covers :class:`~repro.core.npzmap.MmapNpzReader` (member views over one
shared map, eager fallback for compressed members) and
``load_quantized_model(..., lazy=True)`` — including the satellite
requirement that lazy and eager loads are equivalent over the golden
v1/v2/v3 fixtures, and that bytes-touched is observable via obs counters.
"""

import gc
import os
import struct
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.model_quantizer import quantize_model
from repro.core.npzmap import MmapNpzReader
from repro.core.serialization import (
    LazyQuantizedTensors,
    load_quantized_model,
    save_quantized_model,
)
from repro.errors import (
    ChecksumMismatchError,
    ReproError,
    SerializationError,
    TruncatedArchiveError,
)
from repro.kernels import LookupKernel, dequantize_matmul
from repro.models import BertModel, attach_quantized_linears
from repro.serve.health import classify_failure
from repro.testing.faults import corrupt_bytes
from repro.testing.golden import GOLDEN_VERSIONS, golden_path, write_golden
from tests.conftest import MICRO_CONFIG

DATA_DIR = Path(__file__).resolve().parents[1] / "data"


def member_data_offset(path: Path, member: str) -> tuple[int, int]:
    """(data offset, data size) of a stored zip member, from its local header."""
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(member)
    raw = path.read_bytes()
    name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
    return info.header_offset + 30 + name_len + extra_len, info.file_size


def write_npy_member(path: Path, name: str, npy_bytes: bytes) -> None:
    """A one-member ZIP_STORED archive holding raw ``npy_bytes``."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        zf.writestr(f"{name}.npy", npy_bytes)


def npy_v1_bytes(array: np.ndarray, pad: int = 0, version: bytes = b"\x01\x00") -> bytes:
    """Hand-rolled npy v1 encoding with ``pad`` extra header padding bytes."""
    header = (
        f"{{'descr': '{array.dtype.str}', 'fortran_order': False, "
        f"'shape': {array.shape!r}, }}"
    )
    header = header + " " * pad
    header = header + " " * (63 - (10 + len(header)) % 64) + "\n"
    return (
        b"\x93NUMPY" + version + struct.pack("<H", len(header))
        + header.encode("latin1") + array.tobytes()
    )


def npy_v1_raw(header: str, data: bytes) -> bytes:
    """An npy v1 member whose header dict text is ``header``, verbatim."""
    header = header + " " * (63 - (10 + len(header)) % 64) + "\n"
    encoded = header.encode("latin1")
    return b"\x93NUMPY\x01\x00" + struct.pack("<H", len(encoded)) + encoded + data


def rewrite_member(src: Path, dst: Path, member: str, transform) -> None:
    """Copy a ZIP_STORED archive, passing ``member``'s bytes through
    ``transform``; zipfile records a fresh, valid CRC for the new bytes."""
    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w", zipfile.ZIP_STORED) as zout:
        for info in zin.infolist():
            raw = zin.read(info)
            zout.writestr(info.filename, transform(raw) if info.filename == member else raw)


def replace_in_header(npy: bytes, old: bytes, new: bytes) -> bytes:
    """``npy`` (v1) with ``old`` replaced by ``new`` in its header dict; the
    header keeps its length, so the array data stays where it was."""
    (header_len,) = struct.unpack("<H", npy[8:10])
    header = npy[10 : 10 + header_len]
    assert old in header
    text = header.replace(old, new).rstrip(b" \n")
    return npy[:10] + text.ljust(header_len - 1) + b"\n" + npy[10 + header_len :]


@pytest.fixture(scope="module")
def saved_archive(tmp_path_factory):
    model = BertModel(MICRO_CONFIG, rng=20260807).eval()
    qmodel = quantize_model(model, weight_bits=3, embedding_bits=4)
    path = tmp_path_factory.mktemp("lazy") / "model.npz"
    save_quantized_model(qmodel, path)
    return qmodel, path


class TestMmapNpzReader:
    def test_members_match_np_load(self, saved_archive):
        _, path = saved_archive
        with np.load(path) as expected:
            reader = MmapNpzReader(path)
            assert sorted(reader.keys()) == sorted(expected.files)
            for key in expected.files:
                np.testing.assert_array_equal(reader.read(key), expected[key])

    def test_stored_members_are_views_not_copies(self, saved_archive):
        """ZIP_STORED members come back as read-only views over the map."""
        _, path = saved_archive
        reader = MmapNpzReader(path)
        key = next(k for k in reader.keys() if k.endswith("::codes"))
        array = reader.read(key)
        assert array.flags.writeable is False
        assert array.base is not None  # borrowed buffer, not owned memory

    def test_compressed_archive_falls_back_to_eager(self, tmp_path, rng):
        path = tmp_path / "compressed.npz"
        payload = {"a": rng.normal(size=(7, 5)), "b": np.arange(12, dtype=np.int64)}
        np.savez_compressed(path, **payload)
        reader = MmapNpzReader(path)
        for key, value in payload.items():
            np.testing.assert_array_equal(reader.read(key), value)

    def test_missing_member_raises(self, saved_archive):
        _, path = saved_archive
        with pytest.raises(KeyError):
            MmapNpzReader(path).read("no::such::member")

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SerializationError):
            MmapNpzReader(tmp_path / "absent.npz")

    def test_not_a_zip_raises(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(TruncatedArchiveError):
            MmapNpzReader(path)

    def test_bytes_mapped_counter(self, saved_archive):
        _, path = saved_archive
        reader = MmapNpzReader(path)
        key = next(k for k in reader.keys() if k.endswith("::codes"))
        with obs.scope() as trace:
            array = reader.read(key)
        mapped = [e for e in trace.events if e["name"] == "npzmap.bytes_mapped"]
        assert len(mapped) == 1
        assert mapped[0]["value"] == array.nbytes


class TestFdLifecycle:
    """Satellite regression: close() must release the file descriptor even
    while live views pin the map — a hot-swapping server must not leak one
    fd per reload."""

    @staticmethod
    def count_fds() -> int:
        return len(os.listdir("/proc/self/fd"))

    def test_file_closed_even_with_live_views(self, saved_archive):
        _, path = saved_archive
        reader = MmapNpzReader(path)
        key = next(k for k in reader.keys() if k.endswith("::codes"))
        view = reader.read(key)
        reader.close()
        assert reader._file.closed
        # The map's dup'd descriptor keeps the view valid after close.
        np.testing.assert_array_equal(view, view.copy())

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc (Linux)"
    )
    def test_no_fd_growth_across_model_swaps(self, saved_archive):
        _, path = saved_archive
        gc.collect()
        baseline = self.count_fds()
        for _ in range(8):
            reader = MmapNpzReader(path)
            key = next(k for k in reader.keys() if k.endswith("::codes"))
            view = reader.read(key)
            # Close while the view is alive: the old buggy path returned
            # early on BufferError and leaked reader._file forever.
            reader.close()
            del view, reader
            gc.collect()
        assert self.count_fds() <= baseline


class TestLazyVerify:
    """Satellite: verify="lazy" closes the documented lazy-load integrity
    gap with per-member CRC checks on first access."""

    @pytest.fixture()
    def corrupt_archive(self, tmp_path):
        """A golden v3 archive with one flipped byte inside the codes member."""
        path = write_golden(tmp_path, 3)
        offset, size = member_data_offset(path, "gobo::w::codes.npy")
        corrupt_bytes(path, offset + size - 1)  # last data byte: the codes
        return path

    def test_corrupt_member_raises_on_first_access(self, corrupt_archive):
        model = load_quantized_model(corrupt_archive, lazy=True, verify="lazy")
        with pytest.raises(ChecksumMismatchError, match="CRC"):
            model.quantized["w"]

    def test_lazy_default_catches_corruption_on_access(self, corrupt_archive):
        # The historical gap is closed: a bare lazy load defaults to
        # per-member CRC verification and refuses the flipped byte.
        model = load_quantized_model(corrupt_archive, lazy=True)
        with pytest.raises(ChecksumMismatchError, match="CRC"):
            model.quantized["w"]

    def test_corrupt_member_silently_loads_with_verify_none(self, corrupt_archive):
        # The opt-out keeps the old behavior reachable: no verification
        # means the flipped byte decodes into wrong codes without error.
        model = load_quantized_model(corrupt_archive, lazy=True, verify="none")
        tensor = model.quantized["w"]  # no error raised
        assert tensor.shape == (4, 5)

    def test_eager_load_always_catches_it(self, corrupt_archive):
        with pytest.raises(ChecksumMismatchError):
            load_quantized_model(corrupt_archive)

    def test_intact_members_still_load_lazily(self, corrupt_archive):
        """Only the corrupt member fails; fp32/meta members verify clean."""
        model = load_quantized_model(corrupt_archive, lazy=True, verify="lazy")
        np.testing.assert_allclose(model.fp32["bias"], [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_verify_full_on_lazy_load(self, corrupt_archive, tmp_path):
        with pytest.raises(ChecksumMismatchError):
            load_quantized_model(corrupt_archive, lazy=True, verify="full")
        clean = write_golden(tmp_path / "clean", 3)
        model = load_quantized_model(clean, lazy=True, verify="full")
        assert model.quantized["w"].shape == (4, 5)

    def test_clean_archive_verifies_and_counts(self, tmp_path):
        path = write_golden(tmp_path, 3)
        model = load_quantized_model(path, lazy=True, verify="lazy")
        with obs.scope() as trace:
            model.quantized["w"]
            model.quantized["w"]  # cached: no second verification
        verified = [
            e for e in trace.events if e["name"] == "npzmap.members_verified"
        ]
        assert len(verified) == 4  # codes, centroids, positions, outliers

    def test_invalid_verify_value_rejected(self, tmp_path):
        path = write_golden(tmp_path, 3)
        with pytest.raises(ValueError, match="verify"):
            load_quantized_model(path, verify="paranoid")


class TestNpyHeaderParsing:
    """Satellite: header-length-exact parsing and clear version errors."""

    def test_long_header_member(self, tmp_path, rng):
        """A header longer than any fixed prefix must still parse (the old
        4096-byte slice failed inside numpy on such members)."""
        array = np.arange(24, dtype=np.int64)
        path = tmp_path / "long_header.npz"
        write_npy_member(path, "big", npy_v1_bytes(array, pad=8000))
        reader = MmapNpzReader(path)
        np.testing.assert_array_equal(reader.read("big"), array)

    def test_unsupported_npy_version_named(self, tmp_path):
        array = np.arange(4, dtype=np.int64)
        path = tmp_path / "future.npz"
        write_npy_member(path, "odd", npy_v1_bytes(array, version=b"\x07\x00"))
        reader = MmapNpzReader(path)
        with pytest.raises(SerializationError, match=r"7\.0"):
            reader.read("odd")

    def test_not_npy_member_rejected(self, tmp_path):
        path = tmp_path / "junk_member.npz"
        with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
            zf.writestr("junk.npy", b"not numpy at all, definitely")
        with pytest.raises(SerializationError, match="not a .npy"):
            MmapNpzReader(path).read("junk")

    def test_truncated_header_rejected(self, tmp_path):
        array = np.arange(4, dtype=np.int64)
        raw = npy_v1_bytes(array)
        # Claim a header far longer than the stored bytes.
        truncated = raw[:8] + struct.pack("<H", 60000) + raw[10:]
        path = tmp_path / "torn.npz"
        write_npy_member(path, "torn", truncated)
        with pytest.raises(TruncatedArchiveError, match="header"):
            MmapNpzReader(path).read("torn")


    @pytest.mark.parametrize("header,error", [
        ("{'descr': '<f8', 'fortran_order': False, 'shape': (-1,), }", SerializationError),
        ("{'descr': '<f8', 'fortran_order': False, 'shape': (2, -3), }", SerializationError),
        ("{'descr': '<q9', 'fortran_order': False, 'shape': (4,), }", SerializationError),
        ("{'descr': " + "'" * 3, SerializationError),
        ("{'descr': '<f8', 'fortran_order': False, 'shape': (5,), }", TruncatedArchiveError),
        ("{'descr': '<f8', 'fortran_order': False, 'shape': (2**62, 2**62), }",
         SerializationError),
        ("{'descr': '<f8', 'fortran_order': False, 'shape': (4611686018427387904, "
         "4611686018427387904), }", TruncatedArchiveError),
        ("{'descr': '<f8', 'fortran_order': False, 'shape': (0, 2**70), }", SerializationError),
        ("{'descr': '|V0', 'fortran_order': False, 'shape': (3,), }", SerializationError),
    ], ids=["negative", "negative-2d", "unknown-descr", "untokenizable", "short-data",
            "expression-shape", "overflowing-shape", "empty-huge", "zero-itemsize"])
    def test_malformed_header_raises_typed_error(self, tmp_path, header, error):
        """Each of these once leaked ValueError or tokenize.TokenError, or
        (negative dimension) returned whatever bytes followed the header."""
        path = tmp_path / "bad.npz"
        write_npy_member(path, "bad", npy_v1_raw(header, np.arange(4.0).tobytes()))
        with pytest.raises(error):
            MmapNpzReader(path).read("bad")

    def test_golden_centroids_declaring_more_than_stored(self, tmp_path):
        """A v3 golden whose centroids member declares 4096 floats but
        stores 4 (its CRC rewritten to match): the lazy load raises
        TruncatedArchiveError, which the serve health machine classes as
        an integrity failure rather than a transient one."""
        path = tmp_path / "short_centroids.npz"
        rewrite_member(
            golden_path(DATA_DIR, 3), path, "gobo::w::centroids.npy",
            lambda npy: replace_in_header(npy, b"(4,)", b"(4096,)"),
        )
        model = load_quantized_model(path, lazy=True)
        with pytest.raises(TruncatedArchiveError) as caught:
            model.quantized["w"]
        assert classify_failure(caught.value) == "integrity"
        with pytest.raises(TruncatedArchiveError):
            load_quantized_model(path, lazy=True, verify="full")

    @given(
        shape=st.lists(
            st.integers(-2, 6) | st.integers(-(2**70), 2**70), max_size=3
        ).map(tuple),
        descr=st.sampled_from([
            "'<f4'", "'<f8'", "'|u1'", "'<i8'", "'<U1'", "'|V0'", "'|S0'", "'|O'",
            "'<q9'", "('<f4', (2,))", "[('a', '<f4'), ('b', '<i2')]", "[((), '<f4')]",
            "3", "None",
        ]),
        fortran=st.sampled_from(["False", "True", "0"]),
        stored=st.integers(0, 64),
    )
    @settings(max_examples=200, deadline=None)
    def test_declared_header_maps_or_raises_typed(
        self, tmp_path_factory, shape, descr, fortran, stored
    ):
        header = f"{{'descr': {descr}, 'fortran_order': {fortran}, 'shape': {shape!r}, }}"
        path = tmp_path_factory.mktemp("npy") / "m.npz"
        write_npy_member(path, "m", npy_v1_raw(header, bytes(range(stored))))
        try:
            array = MmapNpzReader(path).read("m")
        except ReproError:
            return
        assert array.shape == shape

    @given(
        edits=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 255)), max_size=6),
        keep=st.integers(0, 256),
    )
    @settings(max_examples=200, deadline=None)
    def test_mutated_member_bytes_map_or_raise_typed(self, tmp_path_factory, edits, keep):
        raw = bytearray(npy_v1_bytes(np.arange(12, dtype=np.float32).reshape(3, 4)))
        for position, value in edits:
            raw[position % len(raw)] = value
        path = tmp_path_factory.mktemp("npy") / "m.npz"
        write_npy_member(path, "m", bytes(raw[:keep]))
        try:
            array = MmapNpzReader(path).read("m")
        except ReproError:
            return
        assert isinstance(array, np.ndarray)


class TestLazyEagerEquivalence:
    @pytest.mark.parametrize("version", GOLDEN_VERSIONS)
    def test_golden_archives(self, version, tmp_path):
        """Satellite: lazy == eager over every archived format version."""
        committed = golden_path(DATA_DIR, version)
        path = committed if committed.exists() else write_golden(tmp_path, version)
        eager = load_quantized_model(path)
        lazy = load_quantized_model(path, lazy=True)
        assert set(lazy.quantized) == set(eager.quantized)
        assert lazy.fc_names == eager.fc_names
        assert lazy.embedding_names == eager.embedding_names
        assert lazy.iterations == eager.iterations
        for name, expected in eager.quantized.items():
            tensor = lazy.quantized[name]
            assert tensor.shape == expected.shape
            assert tensor.bits == expected.bits
            assert bytes(tensor.packed_codes) == bytes(expected.packed_codes)
            np.testing.assert_array_equal(
                tensor.dequantize(np.float64), expected.dequantize(np.float64)
            )
        for name, expected in eager.fp32.items():
            np.testing.assert_array_equal(lazy.fp32[name], expected)

    def test_round_trip_micro_model(self, saved_archive):
        qmodel, path = saved_archive
        lazy = load_quantized_model(path, lazy=True)
        state = lazy.state_dict(dtype=np.float32)
        expected = load_quantized_model(path).state_dict(dtype=np.float32)
        assert set(state) == set(expected)
        for name in expected:
            np.testing.assert_array_equal(state[name], expected[name])

    def test_lazy_tensor_feeds_lookup_kernel(self, saved_archive):
        """Serving straight from the map: kernel over a lazy tensor."""
        _, path = saved_archive
        lazy = load_quantized_model(path, lazy=True)
        name = lazy.fc_names[0]
        tensor = lazy.quantized[name]
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, tensor.shape[1]))
        np.testing.assert_allclose(
            LookupKernel(tensor).matmul(x),
            dequantize_matmul(x, tensor),
            rtol=1e-9,
            atol=1e-12,
        )

    def test_attach_quantized_linears_from_lazy_model(self, saved_archive):
        _, path = saved_archive
        lazy = load_quantized_model(path, lazy=True)
        model = attach_quantized_linears(BertModel(MICRO_CONFIG, rng=1), lazy)
        input_ids = np.random.default_rng(5).integers(0, MICRO_CONFIG.vocab_size, size=(1, 6))
        hidden, pooled = model(input_ids)
        assert hidden.shape == (1, 6, MICRO_CONFIG.hidden_size)
        assert np.isfinite(pooled.data).all()


class TestBytesTouched:
    def test_load_reads_only_metadata(self, saved_archive):
        """The defining property: the load itself touches index/meta/fp32,
        not the packed codes that dominate the archive."""
        _, path = saved_archive
        total = path.stat().st_size
        with obs.scope() as trace:
            lazy = load_quantized_model(path, lazy=True)
        touched = sum(
            e["value"] for e in trace.events if e["name"] == "npzmap.bytes_mapped"
        )
        assert 0 < touched < total / 2
        assert isinstance(lazy.quantized, LazyQuantizedTensors)

    def test_layer_access_is_counted_and_cached(self, saved_archive):
        _, path = saved_archive
        lazy = load_quantized_model(path, lazy=True)
        name = lazy.fc_names[0]
        with obs.scope() as trace:
            first = lazy.quantized[name]
            second = lazy.quantized[name]
        assert first is second
        decoded = [
            e for e in trace.events if e["name"] == "serialization.lazy_layers_decoded"
        ]
        assert len(decoded) == 1

    def test_unknown_layer_raises(self, saved_archive):
        _, path = saved_archive
        lazy = load_quantized_model(path, lazy=True)
        with pytest.raises(KeyError):
            lazy.quantized["encoder.99.bogus.weight"]
