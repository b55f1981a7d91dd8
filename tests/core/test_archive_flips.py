"""Single-byte damage to an archive: a typed error, never a different model.

Every ``.npz`` is parsed by :class:`~repro.core.npzmap.MmapNpzReader`,
which makes the checks ``zipfile``'s decode path made (and two it skipped:
the end record's entry count and a stored member's two sizes), and the
archive loader rejects members outside the v1-v3 layout.  The property:
after flipping one byte (xor ``0xFF``) of a golden archive, each load —
eager, lazy with ``verify="lazy"`` and lazy with ``verify="full"``, each
followed by ``state_dict()`` — returns the clean archive's state dict bit
for bit or raises a :class:`~repro.errors.ReproError`, and
:func:`verify_archive` reports ``ok`` exactly when the eager load returned
the clean model.
"""

import struct
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.core.npzmap import MmapNpzReader
from repro.core.serialization import load_quantized_model, verify_archive
from repro.errors import ChecksumMismatchError, ReproError, TruncatedArchiveError
from repro.testing.golden import golden_path

DATA_DIR = Path(__file__).resolve().parents[1] / "data"

#: Step through the member bytes of the legacy goldens, whose data the
#: v3 SHA-256 does not cover.
DATA_STRIDE = 7

LOADS = {
    "eager": lambda path: load_quantized_model(path),
    "lazy": lambda path: load_quantized_model(path, lazy=True, verify="lazy"),
    "full": lambda path: load_quantized_model(path, lazy=True, verify="full"),
}


def golden_bytes(version: int) -> bytes:
    return golden_path(DATA_DIR, version).read_bytes()


def start_dir(raw: bytes) -> int:
    """Offset of the central directory (the end record's last field but one)."""
    end = raw.rindex(b"PK\x05\x06")
    return struct.unpack_from("<I", raw, end + 16)[0]


def directory_entry(raw: bytes, member: str) -> int:
    """Offset of ``member``'s central-directory entry."""
    offset = start_dir(raw)
    while raw[offset : offset + 4] == b"PK\x01\x02":
        name_len, extra_len, comment_len = struct.unpack_from("<HHH", raw, offset + 28)
        if raw[offset + 46 : offset + 46 + name_len] == member.encode():
            return offset
        offset += 46 + name_len + extra_len + comment_len
    raise KeyError(member)


def local_data(raw: bytes, member: str) -> int:
    """Offset of ``member``'s stored bytes (after its local header)."""
    header = struct.unpack_from("<I", raw, directory_entry(raw, member) + 42)[0]
    name_len, extra_len = struct.unpack_from("<HH", raw, header + 26)
    return header + 30 + name_len + extra_len


def write(tmp_path: Path, raw: bytes, name: str = "damaged.npz") -> Path:
    path = tmp_path / name
    path.unlink(missing_ok=True)  # a fresh inode: earlier lazy maps stay valid
    path.write_bytes(raw)
    return path


def flip(raw: bytes, offset: int, mask: int = 0xFF) -> bytes:
    data = bytearray(raw)
    data[offset] ^= mask
    return bytes(data)


def same_state(state: dict, clean: dict) -> bool:
    return set(state) == set(clean) and all(
        state[k].dtype == clean[k].dtype
        and state[k].shape == clean[k].shape
        and state[k].tobytes() == clean[k].tobytes()
        for k in clean
    )


def violations(tmp_path: Path, version: int, offsets) -> list[str]:
    """Every way the flips at ``offsets`` break the property, as text."""
    raw = golden_bytes(version)
    clean = load_quantized_model(golden_path(DATA_DIR, version)).state_dict()
    found = []
    for offset in offsets:
        path = write(tmp_path, flip(raw, offset))
        returned_clean = {}
        for mode, load in LOADS.items():
            try:
                state = load(path).state_dict()
            except ReproError:
                returned_clean[mode] = False
                continue
            except Exception as exc:  # noqa: BLE001 — the property under test
                found.append(f"{offset} {mode}: untyped {type(exc).__name__}: {exc}")
                continue
            returned_clean[mode] = same_state(state, clean)
            if not returned_clean[mode]:
                found.append(f"{offset} {mode}: returned a different model")
        try:
            check = verify_archive(path)
        except Exception as exc:  # noqa: BLE001
            found.append(f"{offset} verify_archive: untyped {type(exc).__name__}: {exc}")
            continue
        if check.ok != returned_clean.get("eager", False):
            found.append(f"{offset} verify_archive: {check.status} disagrees with the eager load")
    return found


class TestFlipProperty:
    @pytest.mark.parametrize("version", [1, 3])
    def test_every_directory_and_end_record_byte(self, tmp_path, version):
        raw = golden_bytes(version)
        assert violations(tmp_path, version, range(start_dir(raw), len(raw))) == []

    @pytest.mark.parametrize("version", [1, 2])
    def test_strided_member_bytes_of_legacy_archives(self, tmp_path, version):
        raw = golden_bytes(version)
        assert violations(tmp_path, version, range(0, start_dir(raw), DATA_STRIDE)) == []


class TestDamagedDirectory:
    def test_flag_bits_are_a_checksum_mismatch(self, tmp_path):
        """zipfile raised NotImplementedError here, out of verify_archive."""
        raw = golden_bytes(3)
        offset = directory_entry(raw, "gobo::w::codes.npy") + 8
        assert offset == 2106
        path = write(tmp_path, flip(raw, offset))
        assert verify_archive(path).status == "checksum-mismatch"
        with pytest.raises(ChecksumMismatchError):
            load_quantized_model(path)

    def test_comment_length_hiding_entries_is_not_ok(self, tmp_path):
        """zipfile silently dropped the entries the comment swallowed."""
        raw = golden_bytes(3)
        offset = directory_entry(raw, "gobo::w::codes.npy") + 33
        assert offset == 2131
        assert not verify_archive(write(tmp_path, flip(raw, offset))).ok

    def test_legacy_lazy_full_load_checks_member_crcs(self, tmp_path):
        raw = golden_bytes(2)
        offset = local_data(raw, "gobo::w::centroids.npy") + 130  # array data
        path = write(tmp_path, flip(raw, offset))
        with pytest.raises(ChecksumMismatchError):
            load_quantized_model(path, lazy=True, verify="full")

    def test_renamed_member_fails_the_lazy_load(self, tmp_path):
        raw = golden_bytes(3)
        offset = directory_entry(raw, "gobo::w::meta.npy") + 46 + len("gobo::w::m")
        path = write(tmp_path, flip(raw, offset))
        with pytest.raises(ChecksumMismatchError, match="layout"):
            load_quantized_model(path, lazy=True)


class TestReaderChecks:
    """The checks zipfile's decode path made, now made by the reader."""

    MEMBER = "gobo::w::codes.npy"

    def damaged(self, tmp_path, offset_in_entry: int, mask: int) -> Path:
        raw = golden_bytes(3)
        return write(tmp_path, flip(raw, directory_entry(raw, self.MEMBER) + offset_in_entry, mask))

    def test_local_name_differs_from_directory_name(self, tmp_path):
        raw = golden_bytes(3)
        header = struct.unpack_from("<I", raw, directory_entry(raw, self.MEMBER) + 42)[0]
        path = write(tmp_path, flip(raw, header + 30 + 3))
        with pytest.raises(ChecksumMismatchError, match="local header"):
            MmapNpzReader(path).read("gobo::w::codes")

    def test_bad_local_signature(self, tmp_path):
        raw = golden_bytes(3)
        header = struct.unpack_from("<I", raw, directory_entry(raw, self.MEMBER) + 42)[0]
        path = write(tmp_path, flip(raw, header + 2))
        with pytest.raises(ChecksumMismatchError, match="bad local header"):
            MmapNpzReader(path).read("gobo::w::codes")

    @pytest.mark.parametrize("offset_in_entry", [21, 25], ids=["compressed", "uncompressed"])
    def test_stored_sizes_differ(self, tmp_path, offset_in_entry):
        """zipfile read the stored bytes and never noticed the extra size."""
        with pytest.raises(ChecksumMismatchError, match="stored"):
            MmapNpzReader(self.damaged(tmp_path, offset_in_entry, 0x01))

    @pytest.mark.parametrize("bit", [0x01, 0x20, 0x40])
    def test_unreadable_flag_bits(self, tmp_path, bit):
        with pytest.raises(ChecksumMismatchError, match="flag bits"):
            MmapNpzReader(self.damaged(tmp_path, 8, bit))

    def test_entry_count_differs_from_end_record(self, tmp_path):
        raw = golden_bytes(3)
        path = write(tmp_path, flip(raw, raw.rindex(b"PK\x05\x06") + 10, 0x01))
        with pytest.raises(ChecksumMismatchError, match="end record"):
            MmapNpzReader(path)

    def test_non_npy_entry(self, tmp_path):
        path = tmp_path / "extra.npz"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("notes.txt", b"not an array")
        with pytest.raises(ChecksumMismatchError, match="not an .npy member"):
            MmapNpzReader(path)

    def test_unsupported_version_needed_is_truncated(self, tmp_path):
        with pytest.raises(TruncatedArchiveError):
            MmapNpzReader(self.damaged(tmp_path, 6, 0xFF))

    def test_unsupported_compression_is_a_checksum_mismatch(self, tmp_path):
        path = self.damaged(tmp_path, 10, 0xFF)
        with pytest.raises(ChecksumMismatchError):
            MmapNpzReader(path).read("gobo::w::codes")

    def test_corrupt_compressed_member_is_a_checksum_mismatch(self, tmp_path):
        path = tmp_path / "compressed.npz"
        np.savez_compressed(path, a=np.arange(512, dtype=np.int64))
        raw = path.read_bytes()
        path = write(tmp_path, flip(raw, local_data(raw, "a.npy") + 40))
        with pytest.raises(ChecksumMismatchError):
            MmapNpzReader(path).read("a")
