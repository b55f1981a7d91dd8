"""On-disk format for GOBO-compressed models.

A :class:`~repro.core.model_quantizer.QuantizedModel` round-trips through a
single ``.npz`` archive whose size is dominated by the bit-packed G-group
codes — i.e. the file on disk realizes the ~10x compression the paper
reports, not just the in-memory accounting.

Layout (format version 3) per quantized tensor ``<name>``::

    gobo::<name>::codes       packed bitstream (uint8)
    gobo::<name>::centroids   2^bits FP32 reconstruction table
    gobo::<name>::positions   outlier flat indices (uint32)
    gobo::<name>::outliers    outlier values (float32)
    gobo::<name>::meta        [bits, iterations, *shape]

Pass-through FP32 parameters are stored under ``fp32::<name>`` as float32
(the paper's decode target precision; note the in-memory substrate computes
in float64).  The ``index::fc`` / ``index::embeddings`` name lists are
fixed-width unicode arrays and ``index::version`` tags the layout, so the
archive contains **no object arrays** (the reader refuses them) and is safe
to read from untrusted sources.

Guarantees:

* ``save_quantized_model`` normalizes paths the way ``np.savez`` does —
  a missing ``.npz`` suffix is appended — and returns the byte size of the
  file actually written.
* **Atomic writes.** The archive is written to a temporary sibling, fsynced
  and renamed into place (:func:`repro.utils.atomic.atomic_savez`): a crash
  mid-save leaves the previous archive intact, never a truncated one.
* **Checksummed contents.** Version-3 archives carry a SHA-256 digest over
  every stored array (``index::checksum``); :func:`load_quantized_model`
  verifies it and raises :class:`~repro.errors.ChecksumMismatchError` on bit
  rot, as it does for a member CRC-32 mismatch or a member outside the
  layout.  :func:`verify_archive` classifies an eager load's typed error as
  missing / truncated / checksum-mismatched / version-unknown.
* **One reader, one load body.**  Eager and lazy loads both parse the
  archive with :class:`~repro.core.npzmap.MmapNpzReader` in :func:`_load`;
  an eager load adds a full read, a copy of the codes and a close.
* The clustering iteration counts (``QuantizedModel.iterations``) survive
  the round-trip, so per-layer reports can be regenerated after a reload.
* Version-1 archives (no iteration counts in ``meta``) and version-2
  archives (no checksum) still load, without the SHA-256 verification.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Mapping

import numpy as np

from repro.core.model_quantizer import QuantizedModel
from repro.core.npzmap import MmapNpzReader
from repro.core.quantizer import GoboQuantizedTensor
from repro.errors import (
    ChecksumMismatchError,
    FormatVersionError,
    SerializationError,
    TruncatedArchiveError,
)
from repro.obs import recorder as obs
from repro.utils.atomic import atomic_savez

FORMAT_VERSION = 3
CHECKSUM_KEY = "index::checksum"
#: The members of each quantized tensor: ``gobo::<name>::<field>``.
TENSOR_FIELDS = ("codes", "centroids", "positions", "outliers", "meta")
#: The other members every archive has, besides its ``fp32::<name>`` ones;
#: v2 adds ``index::version`` and v3 :data:`CHECKSUM_KEY`.
INDEX_KEYS = ("index::fc", "index::embeddings")


def _normalize_path(path: str | Path) -> Path:
    """Mirror ``np.savez``'s suffix handling: append ``.npz`` if absent."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def payload_checksum(payload: Mapping[str, np.ndarray]) -> bytes:
    """SHA-256 digest over every array (except the checksum itself).

    Keys are visited in sorted order and each contribution covers the key,
    dtype, shape and raw bytes, so any bit flip in data *or* metadata — and
    any added, dropped or renamed array — changes the digest.
    """
    digest = hashlib.sha256()
    for key in sorted(payload):
        if key == CHECKSUM_KEY:
            continue
        array = np.ascontiguousarray(payload[key])
        digest.update(key.encode("utf-8"))
        digest.update(str(array.dtype).encode("ascii"))
        digest.update(repr(array.shape).encode("ascii"))
        digest.update(array.tobytes())
    return digest.digest()


def save_quantized_model(model: QuantizedModel, path: str | Path) -> int:
    """Write ``model`` to ``path`` (npz). Returns the file size in bytes.

    ``np.savez`` silently appends ``.npz`` when the path lacks the suffix;
    the path is normalized the same way first so the size reported is that
    of the file actually written.  The write is atomic (tmp + fsync +
    rename) and the archive carries a SHA-256 content checksum.
    """
    payload: dict[str, np.ndarray] = {}
    for name, tensor in model.quantized.items():
        payload[f"gobo::{name}::codes"] = np.frombuffer(tensor.packed_codes, dtype=np.uint8)
        payload[f"gobo::{name}::centroids"] = tensor.centroids.astype(np.float32)
        payload[f"gobo::{name}::positions"] = tensor.outlier_positions.astype(np.uint32)
        payload[f"gobo::{name}::outliers"] = tensor.outlier_values.astype(np.float32)
        payload[f"gobo::{name}::meta"] = np.array(
            [tensor.bits, model.iterations.get(name, 0), *tensor.shape], dtype=np.int64
        )
    for name, value in model.fp32.items():
        payload[f"fp32::{name}"] = np.asarray(value, dtype=np.float32)
    payload["index::fc"] = np.array(model.fc_names, dtype=np.str_)
    payload["index::embeddings"] = np.array(model.embedding_names, dtype=np.str_)
    payload["index::version"] = np.array([FORMAT_VERSION], dtype=np.int64)
    payload[CHECKSUM_KEY] = np.frombuffer(payload_checksum(payload), dtype=np.uint8)
    size = atomic_savez(_normalize_path(path), payload)
    obs.counter("serialization.archives_written")
    obs.counter("serialization.bytes_written", size)
    return size


def _tensor_names(reader: MmapNpzReader) -> list[str]:
    """The quantized tensors in ``reader``, once every member fits the layout:
    a stray member or a tensor short of a member is a damaged directory (a
    flipped name byte), not a smaller model."""
    keys = set(reader.keys())
    names = {key[len("gobo::"):].rpartition("::")[0] for key in keys if key.startswith("gobo::")}
    expected = {f"gobo::{name}::{field}" for name in names for field in TENSOR_FIELDS}
    expected.update(INDEX_KEYS)
    misfits = {key for key in keys ^ expected if not key.startswith("fp32::")}
    misfits -= {"index::version", CHECKSUM_KEY}
    if misfits:
        raise ChecksumMismatchError(
            f"archive {reader.path} does not fit the format layout: {sorted(misfits)}"
        )
    return sorted(names)


def verify_payload(arrays: Mapping[str, np.ndarray], source: str) -> None:
    """Raise :class:`ChecksumMismatchError` unless ``arrays`` (an archive or
    shard, named by ``source``) carries its own valid :data:`CHECKSUM_KEY`."""
    if CHECKSUM_KEY not in arrays:
        raise ChecksumMismatchError(f"{source} carries no checksum")
    recorded = bytes(np.asarray(arrays[CHECKSUM_KEY], dtype=np.uint8).tobytes())
    actual = payload_checksum(arrays)
    if recorded != actual:
        raise ChecksumMismatchError(
            f"{source} failed checksum verification: "
            f"recorded {recorded.hex()[:16]}…, computed {actual.hex()[:16]}…"
        )


def _parse_meta(meta: np.ndarray, version: int) -> tuple[int, int, tuple[int, ...]]:
    """(bits, iterations, shape) from a ``::meta`` record of ``version``."""
    if version >= 2:
        return int(meta[0]), int(meta[1]), tuple(int(d) for d in meta[2:])
    return int(meta[0]), 0, tuple(int(d) for d in meta[1:])


def _decode(read: Callable[[str], np.ndarray], name: str, meta: tuple, own: bool):
    """Tensor ``name`` from its members; the codes stay a view unless ``own``."""
    bits, _, shape = meta
    codes = read(f"gobo::{name}::codes")
    return GoboQuantizedTensor(
        shape=shape,
        bits=bits,
        centroids=read(f"gobo::{name}::centroids").astype(np.float64),
        packed_codes=codes.tobytes() if own else codes,
        outlier_positions=read(f"gobo::{name}::positions").astype(np.int64),
        outlier_values=read(f"gobo::{name}::outliers").astype(np.float64),
    )


class LazyQuantizedTensors(MappingABC):
    """Per-layer on-demand decode over a memory-mapped archive.

    Behaves like the ``quantized`` dict of a :class:`QuantizedModel`, but a
    layer's codes/centroids/outliers are materialized only when the layer
    is first accessed — and the bit-packed codes stay **views into the
    map** (no copy), so the bytes a forward pass touches are exactly the
    layers it uses.  Decodes are traced on the ``serialization.lazy_layer``
    span and the ``npzmap.bytes_mapped`` counter.
    """

    def __init__(self, reader: MmapNpzReader, metas: dict[str, tuple]) -> None:
        self._reader = reader
        self._metas = metas
        self._cache: dict[str, GoboQuantizedTensor] = {}

    def __getitem__(self, name: str) -> GoboQuantizedTensor:
        if name in self._cache:
            return self._cache[name]
        if name not in self._metas:
            raise KeyError(name)
        with obs.span("serialization.lazy_layer", layer=name):
            tensor = _decode(self._reader.read, name, self._metas[name], own=False)
        obs.counter("serialization.lazy_layers_decoded")
        self._cache[name] = tensor
        return tensor

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._metas))

    def __len__(self) -> int:
        return len(self._metas)

    def close(self) -> None:
        """Release the underlying archive map.

        The serving registry calls this when a hot-swapped model drains: the
        archive's file descriptor closes immediately; the map itself lingers
        only while already-materialized code views are alive (see
        :meth:`MmapNpzReader.close`).  Tensors decoded before the close stay
        usable; new layer accesses will fail.
        """
        self._reader.close()


def _load(path: Path, lazy: bool, verify: str) -> tuple[QuantizedModel, int]:
    """The model at ``path`` and its format version: the one load body.

    An eager load (or ``verify="full"``) first reads every member, so each
    is CRC-checked, and verifies the v3 SHA-256 unless ``verify="none"``;
    an eager load then copies the codes out and closes the reader, so its
    result holds no view of the map.
    """
    reader = MmapNpzReader(path, verify=not lazy or verify != "none")
    try:
        version = int(reader.read("index::version")[0]) if "index::version" in reader else 1
        if not 1 <= version <= FORMAT_VERSION:
            raise FormatVersionError(
                f"archive {path} has format version {version}; "
                f"this reader supports 1..{FORMAT_VERSION}",
                version,
            )
        names = _tensor_names(reader)
        read = reader.read
        if not lazy or verify == "full":
            # Every member is read, so CRC-checked, before anything is built.
            arrays = {key: reader.read(key) for key in reader.keys()}
            if version >= 3 and verify != "none":
                verify_payload(arrays, f"archive {path}")
            read = arrays.__getitem__
        metas = {name: _parse_meta(read(f"gobo::{name}::meta"), version) for name in names}
        # Pass-through FP32 params (biases, LayerNorm, fallback layers) are
        # copied eagerly: they are needed in full by any load target, and they
        # are the small remainder once the weights are bit-packed.
        fp32 = {
            key[len("fp32::"):]: read(key).astype(np.float64)
            for key in reader.keys()
            if key.startswith("fp32::")
        }
        fc_names = tuple(str(n) for n in read("index::fc"))
        embedding_names = tuple(str(n) for n in read("index::embeddings"))
        if lazy:
            quantized = LazyQuantizedTensors(reader, metas)
        else:
            quantized = {name: _decode(read, name, metas[name], own=True) for name in names}
            reader.close()
    except BaseException:
        reader.close()
        raise
    iterations = {name: meta[1] for name, meta in metas.items() if meta[1] > 0}
    return QuantizedModel(quantized, fp32, fc_names, embedding_names, iterations), version


def load_quantized_model(
    path: str | Path, lazy: bool = False, verify: str | None = None
) -> QuantizedModel:
    """Read a :class:`QuantizedModel` written by :func:`save_quantized_model`.

    Object arrays are never read (the format stores none), version-3
    archives are checksum-verified before any tensor is reconstructed, and
    the per-layer iteration counts recorded at quantization time are
    restored.  Every parse failure is a :class:`~repro.errors.SerializationError`.

    With ``lazy=True`` the archive stays memory-mapped instead of read:
    indexes and per-layer metadata load eagerly (a few hundred bytes), but
    each quantized tensor is constructed on first access with its packed
    codes left as zero-copy views into the map (see
    :class:`LazyQuantizedTensors` and :class:`~repro.core.npzmap.
    MmapNpzReader`).  Feeding these tensors to :mod:`repro.kernels` serves
    inference with bytes-touched proportional to the layers used.

    ``verify`` selects the integrity level:

    * ``"full"`` — every member's CRC-32 and the whole-archive SHA-256
      checksum are verified up front (reads every byte).  Default for eager
      loads.
    * ``"lazy"`` — each member's bytes are checked against the zip CRC-32
      on first access, so a lazy load stays proportional to the layers
      touched but bit rot still raises
      :class:`~repro.errors.ChecksumMismatchError` instead of producing
      silently wrong logits.  Default for lazy loads.
    * ``"none"`` — no verification (an eager load still checks CRC-32s).
      Opt-in only: an unverified load can serve silently wrong logits from
      a bit-rotted archive.
    """
    path = Path(path)
    if verify is None:
        verify = "lazy" if lazy else "full"
    if verify not in ("none", "lazy", "full"):
        raise ValueError(f"verify must be 'none', 'lazy' or 'full', got {verify!r}")
    model, _ = _load(path, lazy, verify)
    if lazy:
        obs.counter("serialization.archives_read_lazy")
    else:
        obs.counter("serialization.archives_read")
        obs.counter("serialization.bytes_read", path.stat().st_size)
    return model


@dataclass(frozen=True)
class ArchiveCheck:
    """The classification produced by :func:`verify_archive`.

    ``status`` is one of ``"ok"`` (version-3, checksum verified),
    ``"ok-unchecksummed"`` (readable legacy version-1/2 archive),
    ``"missing"``, ``"truncated"``, ``"checksum-mismatch"`` or
    ``"version-unknown"``.
    """

    path: Path
    status: str
    version: int | None
    detail: str

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "ok-unchecksummed")


def verify_archive(path: str | Path) -> ArchiveCheck:
    """Classify the archive at ``path`` by the typed error of an eager load.

    Distinguishes the four failure modes a durable store must tell apart:
    the file is absent, the container is truncated or not a zip at all, the
    contents fail verification (bit flips in data or directory), or the
    format version is newer than this reader.  ``ok`` holds exactly when
    :func:`load_quantized_model` would return the model.
    """
    path = Path(path)
    if not path.exists():
        return ArchiveCheck(path, "missing", None, "file does not exist")
    try:
        model, version = _load(path, lazy=False, verify="full")
    except TruncatedArchiveError as exc:
        return ArchiveCheck(path, "truncated", None, str(exc))
    except FormatVersionError as exc:
        return ArchiveCheck(path, "version-unknown", exc.version, str(exc))
    except SerializationError as exc:
        return ArchiveCheck(path, "checksum-mismatch", None, str(exc))
    if version < 3:
        return ArchiveCheck(
            path, "ok-unchecksummed", version,
            f"readable legacy archive (format version {version} has no checksum)",
        )
    return ArchiveCheck(
        path, "ok", version,
        f"checksum verified over {len(model.quantized)} quantized tensors and "
        f"{len(model.fp32)} FP32 parameters",
    )
