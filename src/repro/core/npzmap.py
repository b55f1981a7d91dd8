"""The one npz parser: zero-copy member access over a memory map.

Every ``.npz`` the package reads — GOBO archives (eager and lazy loads),
durable-job shards and cached checkpoints — goes through
:class:`MmapNpzReader`.  The archives written by
:func:`repro.utils.atomic.write_npz` hold **ZIP_STORED** ``<name>.npy``
members, so each member's array data lives contiguously in the file and
the reader hands out ``np.frombuffer`` views over one shared ``mmap``.
Every member access is counted on the ``npzmap.bytes_mapped`` /
``npzmap.members_read`` obs counters, so bytes-touched is observable.

``zipfile`` only parses the central directory: the reader owns the checks
its decode path made, plus the end record's entry count and a stored
member's two sizes.  A container ``zipfile`` cannot open, or a member that
extends past the file, raises :class:`~repro.errors.TruncatedArchiveError`.
A damaged directory entry (wrong count, a member that is not ``.npy``,
encryption or patch flag bits, unequal stored sizes), a bad local header or
name, and a CRC-32 mismatch raise :class:`~repro.errors.ChecksumMismatchError`.
Members not stored uncompressed (``np.savez_compressed``) fall back to an
eager ``zipfile`` read, where any failure is a ``ChecksumMismatchError``.
"""

from __future__ import annotations

import functools
import math
import mmap
import struct
import tokenize
import zipfile
import zlib
from io import BytesIO
from pathlib import Path

import numpy as np
from numpy.lib import format as _npformat

from repro.errors import (
    ChecksumMismatchError,
    SerializationError,
    TruncatedArchiveError,
)
from repro.obs import recorder as obs

#: Fixed portion of a zip local file header (PK\x03\x04 ... extra-len).
_LOCAL_HEADER = struct.Struct("<4sHHHHHIIIHH")
_LOCAL_MAGIC = b"PK\x03\x04"
#: Flag bits: a UTF-8 (not cp437) name; encrypted, patched or strongly
#: encrypted data, which zipfile refuses to read.
_UTF8_NAME = 0x800
_UNREADABLE_FLAGS = 0x01 | 0x20 | 0x40
#: .npy member prefix: 6-byte magic + 2 version bytes.
_NPY_MAGIC = b"\x93NUMPY"
_NPY_MAGIC_LEN = len(_NPY_MAGIC) + 2


@functools.lru_cache(maxsize=256)
def _read_npy_header(read_header, header: bytes) -> tuple:
    """numpy's npy header parse, memoized: archives repeat a few headers, and
    the parse (a ``literal_eval``) dominates reading a small member."""
    return read_header(BytesIO(header))


class MmapNpzReader:
    """Read npz members as views over one shared memory map.

    ``read(key)`` returns the array stored as ``<key>.npy``; for
    ZIP_STORED members the result is a read-only view into the map (no
    copy), otherwise an eagerly decoded array.  The reader (and its map)
    must outlive every view it hands out; ``close()`` is best-effort and
    leaves the map open while views still reference it.

    With ``verify=True`` every member's bytes are checked against the zip
    central directory's CRC-32 the first time it is read, so bit rot
    surfaces as :class:`~repro.errors.ChecksumMismatchError` instead of
    silently wrong arrays.  The structural checks are made regardless.
    """

    def __init__(self, path: str | Path, verify: bool = False) -> None:
        self.path = Path(path)
        self.verify = verify
        self._verified: set[str] = set()
        if not self.path.exists():
            raise SerializationError(f"no such archive: {self.path}")
        self._file = open(self.path, "rb")
        try:
            self._mmap = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
            self._zip = zipfile.ZipFile(self._file)
            # The end record zipfile itself parsed, for its entry count.
            declared = zipfile._EndRecData(self._file)[zipfile._ECD_ENTRIES_TOTAL]
        except (OSError, ValueError, NotImplementedError, zipfile.BadZipFile) as exc:
            self._file.close()
            raise TruncatedArchiveError(
                f"cannot map archive {self.path}: not a valid npz container ({exc})"
            ) from exc
        try:
            self._members = self._check_directory(declared)
        except ChecksumMismatchError:
            self.close()
            raise
        self.nbytes = self.path.stat().st_size
        obs.counter("npzmap.archives_mapped")

    def _check_directory(self, declared: int) -> dict[str, zipfile.ZipInfo]:
        """The ``.npy`` members by key, once the directory passes its checks."""
        infos = self._zip.infolist()
        if len(infos) != declared:
            raise ChecksumMismatchError(
                f"archive {self.path}: the central directory lists {len(infos)} "
                f"entries but the end record declares {declared}"
            )
        for info in infos:
            if not info.filename.endswith(".npy"):
                problem = "is not an .npy member"
            elif info.flag_bits & _UNREADABLE_FLAGS:
                problem = f"has unreadable flag bits {info.flag_bits:#06x}"
            elif info.compress_type == zipfile.ZIP_STORED and info.compress_size != info.file_size:
                problem = "is stored with unequal compressed and uncompressed sizes"
            else:
                continue
            raise ChecksumMismatchError(f"archive {self.path} member {info.filename!r} {problem}")
        return {info.filename[: -len(".npy")]: info for info in infos}

    # ------------------------------------------------------------------ access
    def keys(self) -> list[str]:
        return list(self._members)

    def __contains__(self, key: str) -> bool:
        return key in self._members

    def read(self, key: str) -> np.ndarray:
        """The array stored under ``key`` (zero-copy when ZIP_STORED)."""
        info = self._members.get(key)
        if info is None:
            raise KeyError(key)
        if info.compress_type == zipfile.ZIP_STORED:
            data = self._member_data(info)
            if self.verify and key not in self._verified:
                self._verify_member(info, data)
                self._verified.add(key)
        else:
            # Compressed member: no contiguous bytes to map; decompress it
            # eagerly.  zipfile checks the member CRC itself on this path.
            try:
                data = memoryview(self._zip.read(info))
            except Exception as exc:  # noqa: BLE001 — every zipfile decode failure
                raise ChecksumMismatchError(
                    f"archive {self.path} member {info.filename!r} is corrupt ({exc})"
                ) from exc
        array = self._parse_npy(info, data)
        obs.counter("npzmap.members_read")
        obs.counter("npzmap.bytes_mapped", int(array.nbytes))
        return array

    def _member_data(self, info: zipfile.ZipInfo) -> memoryview:
        """The raw stored bytes of ``info`` as a view over the map.

        The data follows the member's *local header*, whose name/extra
        lengths can differ from the central directory's, so they are read
        from the local header itself, which (as zipfile requires) must carry
        the signature and the directory's name.
        """
        start = info.header_offset
        header = self._mmap[start : start + _LOCAL_HEADER.size]
        if len(header) < _LOCAL_HEADER.size or header[:4] != _LOCAL_MAGIC:
            raise ChecksumMismatchError(
                f"archive {self.path}: bad local header for {info.filename!r}"
            )
        _, _, flags, *_, name_len, extra_len = _LOCAL_HEADER.unpack(header)
        name_start = start + _LOCAL_HEADER.size
        name = self._mmap[name_start : name_start + name_len]
        if name.decode("utf-8" if flags & _UTF8_NAME else "cp437", "replace") != info.orig_filename:
            raise ChecksumMismatchError(
                f"archive {self.path}: member {info.filename!r} is named {name!r} "
                f"in its local header"
            )
        data_start = name_start + name_len + extra_len
        data = memoryview(self._mmap)[data_start : data_start + info.file_size]
        if len(data) < info.file_size:
            raise TruncatedArchiveError(
                f"archive {self.path}: member {info.filename!r} extends past "
                f"the end of the file"
            )
        return data

    def _verify_member(self, info: zipfile.ZipInfo, data: memoryview) -> None:
        """Check ``data`` against the central directory's CRC-32."""
        actual = zlib.crc32(data)
        if actual != info.CRC:
            raise ChecksumMismatchError(
                f"archive {self.path} member {info.filename!r} failed CRC "
                f"verification: recorded {info.CRC:#010x}, computed {actual:#010x}"
            )
        obs.counter("npzmap.members_verified")

    def _parse_npy(self, info: zipfile.ZipInfo, data: memoryview) -> np.ndarray:
        """Parse the .npy header in ``data`` and view the array that follows.

        The header is sliced exactly: the npy format's own header-length
        field says where the array data begins, so headers longer than any
        fixed prefix (huge structured dtypes, deeply padded dicts) parse
        correctly instead of failing inside numpy on a truncated buffer.

        Only typed errors leave this method: a malformed header or shape
        raises :class:`SerializationError`, and a header or array that
        extends past the stored bytes raises :class:`TruncatedArchiveError`.
        The array's size is computed in Python integers, so a huge declared
        shape cannot overflow into a small one.
        """
        name = info.filename
        if len(data) < _NPY_MAGIC_LEN or bytes(data[: len(_NPY_MAGIC)]) != _NPY_MAGIC:
            raise SerializationError(f"archive member {name!r} is not a .npy file")
        major, minor = data[6], data[7]
        if (major, minor) == (1, 0):
            length_field = struct.Struct("<H")
            read_header = _npformat.read_array_header_1_0
        elif (major, minor) == (2, 0):
            length_field = struct.Struct("<I")
            read_header = _npformat.read_array_header_2_0
        else:
            raise SerializationError(
                f"archive member {name!r} uses npy format "
                f"{major}.{minor}; this mapper supports 1.0 and 2.0"
            )
        header_start = _NPY_MAGIC_LEN + length_field.size
        if header_start > len(data):
            raise TruncatedArchiveError(
                f"archive member {name!r} ends inside its npy header length"
            )
        (header_len,) = length_field.unpack(data[_NPY_MAGIC_LEN:header_start])
        header_end = header_start + header_len
        if header_end > len(data):
            raise TruncatedArchiveError(
                f"archive member {name!r} declares a {header_len}-byte "
                f"header but only {len(data)} bytes are stored"
            )
        try:
            shape, fortran_order, dtype = _read_npy_header(
                read_header, bytes(data[_NPY_MAGIC_LEN:header_end])
            )
        except (ValueError, TypeError, SyntaxError, tokenize.TokenError) as exc:
            raise SerializationError(
                f"archive member {name!r} has a malformed npy header ({exc})"
            ) from exc
        if dtype.hasobject:
            raise SerializationError(
                f"archive member {name!r} stores objects; refusing to map"
            )
        if any(dim < 0 for dim in shape):
            raise SerializationError(
                f"archive member {name!r} declares a negative dimension: shape {shape}"
            )
        count = math.prod(shape)
        stored = len(data) - header_end
        if count * dtype.itemsize > stored:
            raise TruncatedArchiveError(
                f"archive member {name!r} declares shape {shape} of {dtype} "
                f"({count * dtype.itemsize} bytes) but stores {stored} bytes"
            )
        try:
            array = np.frombuffer(data, dtype=dtype, count=count, offset=header_end)
            return array.reshape(shape[::-1]).T if fortran_order else array.reshape(shape)
        except (ValueError, TypeError, OverflowError) as exc:
            # What passes the size check but still cannot be viewed: a
            # zero-size dtype, a subarray dtype, an empty shape whose other
            # dimensions overflow, a bool dimension.
            raise SerializationError(
                f"archive member {name!r} declares an unmappable array ({exc})"
            ) from exc

    # ------------------------------------------------------------------- close
    def close(self) -> None:
        """Close the zip and file; the map too unless views still hold it.

        ``mmap`` dups the file descriptor at construction, so the file
        object can — and must — be closed unconditionally: live views keep
        the *map* (and its dup'd descriptor) alive, not the Python file.  A
        long-lived process that reopens archives (a serving registry
        hot-swapping models) would otherwise leak one fd per reload
        whenever any view of the old map was still referenced.
        """
        self._zip.close()
        self._file.close()
        try:
            self._mmap.close()
        except BufferError:
            # Live views still reference the map; its pages and dup'd fd
            # are released when the last view is garbage collected.
            pass

    def __enter__(self) -> "MmapNpzReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
