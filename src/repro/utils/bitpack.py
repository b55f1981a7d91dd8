"""Dense bit-packing of small unsigned integers.

GOBO stores each "G"-group weight as a ``bits``-wide index (2..8 bits).  The
paper's compression ratios assume these indexes are stored densely, so the
storage format packs them back to back into a byte stream with no padding
between values (only the final byte may carry unused trailing bits).

Layout: value ``k`` occupies bits ``[k*bits, (k+1)*bits)`` of the stream,
LSB first within each value, and stream bit ``i`` lives in byte ``i // 8``
at bit position ``i % 8`` (little-endian bit order).

Two implementations share that layout:

* a **grouped fast path** for every width whose bit-groups fit a 64-bit
  word (1-8, 10, 12, 14 and 16 — in particular the 2/3/4/8-bit widths the
  quantizer actually emits): ``lcm(bits, 8) / bits`` values are packed into
  ``lcm(bits, 8) / 8`` bytes with vectorized shifts, so the working set
  stays proportional to the payload.  Packing shifts each column of the
  ``(groups, values per group)`` view straight into a ``uint32`` word
  (``uint64`` where a group needs more than 32 bits) and ORs it in, so the
  codes are never copied into a wider type first;
* a **bit-matrix fallback** for the remaining widths (9, 11, 13, 15),
  which expands each value into its bits before calling ``np.packbits`` —
  correct but ~``bits``x the payload in temporaries.

The fast path matters: the lookup kernels in :mod:`repro.kernels` unpack
codes on the serving path, where the fallback's ``count x bits`` uint64
bit matrix (~24x the payload for 3-bit codes on a 768x768 layer) would
dominate the latency the kernel is meant to remove.
"""

from __future__ import annotations

import math

import numpy as np


def packed_nbytes(count: int, bits: int) -> int:
    """Number of bytes needed to store ``count`` values of ``bits`` width."""
    _check_bits(bits)
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return (count * bits + 7) // 8


def _group_geometry(bits: int) -> tuple[int, int] | None:
    """(values per group, bytes per group) for the fast path, else None.

    A group is the smallest run of values whose packed form is whole bytes:
    ``lcm(bits, 8) // bits`` values in ``lcm(bits, 8) // 8`` bytes.  The
    fast path requires the group to fit one uint64 word.
    """
    gcd = math.gcd(bits, 8)
    values_per_group = 8 // gcd
    bytes_per_group = bits // gcd
    if bits * values_per_group > 64:
        return None
    return values_per_group, bytes_per_group


def pack_bits(values: np.ndarray, bits: int) -> bytes:
    """Pack an array of unsigned integers into a dense little-endian bitstream.

    Values must be a non-negative integer (or boolean) array and fit in
    ``bits`` bits.  Float arrays are rejected rather than silently
    truncated, and negative values are rejected rather than wrapped through
    the unsigned conversion.  The inverse is :func:`unpack_bits`.
    """
    _check_bits(bits)
    array = np.asarray(values)
    if array.dtype != np.bool_ and not np.issubdtype(array.dtype, np.integer):
        raise TypeError(
            f"pack_bits requires an integer array, got dtype {array.dtype}; "
            "round or cast explicitly before packing"
        )
    flat = array.ravel()
    if flat.size:
        low = int(flat.min())
        if low < 0:
            raise ValueError(
                f"pack_bits requires non-negative values, got {low}"
            )
        high = int(flat.max())
        if high >= (1 << bits):
            raise ValueError(f"value {high} does not fit in {bits} bits")
    geometry = _group_geometry(bits)
    if geometry is None:
        return _pack_bits_bitmatrix(np.ascontiguousarray(flat, dtype=np.uint64), bits)
    return _pack_bits_grouped(flat, bits, *geometry)


def unpack_bits(data: bytes, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: recover ``count`` values from ``data``."""
    _check_bits(bits)
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    needed = packed_nbytes(count, bits)
    if len(data) < needed:
        raise ValueError(f"need {needed} bytes for {count} x {bits}-bit values, got {len(data)}")
    raw = np.frombuffer(data, dtype=np.uint8, count=needed)
    geometry = _group_geometry(bits)
    if geometry is None:
        return _unpack_bits_bitmatrix(raw, bits, count)
    return _unpack_bits_grouped(raw, bits, count, *geometry)


# --------------------------------------------------------------- fast path
def _pack_bits_grouped(
    flat: np.ndarray, bits: int, values_per_group: int, bytes_per_group: int
) -> bytes:
    """Column ``j`` of the ``(groups, values_per_group)`` view is cast and
    shifted by ``j * bits`` inside one ufunc call, then ORed into the group
    words; a last, partial group is assembled in Python."""
    if flat.size == 0:
        return b""
    word = np.uint32 if bits * values_per_group <= 32 else np.uint64
    whole, rest = divmod(flat.size, values_per_group)
    words = np.zeros(whole + (rest > 0), dtype=word)
    body, column = words[:whole], np.empty(whole, dtype=word)
    columns = flat[: whole * values_per_group].reshape(whole, values_per_group)
    for j in range(values_per_group):
        np.left_shift(columns[:, j], j * bits, out=column, dtype=word, casting="unsafe")
        body |= column
    if rest:
        tail = flat[whole * values_per_group :].tolist()
        words[whole] = sum(int(value) << (j * bits) for j, value in enumerate(tail))
    group_bytes = (
        words.astype(words.dtype.newbyteorder("<"), copy=False)
        .view(np.uint8)
        .reshape(words.size, words.itemsize)[:, :bytes_per_group]
    )
    stream = np.ascontiguousarray(group_bytes).tobytes()
    return stream[: packed_nbytes(flat.size, bits)]


def _unpack_bits_grouped(
    raw: np.ndarray, bits: int, count: int, values_per_group: int, bytes_per_group: int
) -> np.ndarray:
    if count == 0:
        return np.empty(0, dtype=np.int64)
    groups = -(-count // values_per_group)
    padded = np.zeros(groups * bytes_per_group, dtype=np.uint8)
    padded[: raw.size] = raw
    buffer = np.zeros((groups, 8), dtype=np.uint8)
    buffer[:, :bytes_per_group] = padded.reshape(groups, bytes_per_group)
    words = buffer.view("<u8").astype(np.uint64, copy=False).reshape(groups)
    shifts = np.arange(values_per_group, dtype=np.uint64) * np.uint64(bits)
    mask = np.uint64((1 << bits) - 1)
    values = (words[:, None] >> shifts) & mask
    return values.reshape(-1)[:count].astype(np.int64)


# ---------------------------------------------------------------- fallback
def _pack_bits_bitmatrix(flat: np.ndarray, bits: int) -> bytes:
    """Reference implementation: expand to bits (LSB first), np.packbits."""
    bit_matrix = (flat[:, None] >> np.arange(bits, dtype=np.uint64)) & np.uint64(1)
    return np.packbits(bit_matrix.astype(np.uint8).ravel(), bitorder="little").tobytes()


def _unpack_bits_bitmatrix(raw: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Reference implementation: np.unpackbits, recombine bit columns."""
    bit_stream = np.unpackbits(raw, bitorder="little")[: count * bits]
    bit_matrix = bit_stream.reshape(count, bits).astype(np.uint64)
    weights = np.uint64(1) << np.arange(bits, dtype=np.uint64)
    return (bit_matrix * weights).sum(axis=1).astype(np.int64)


def _check_bits(bits: int) -> None:
    if not 1 <= bits <= 16:
        raise ValueError(f"bits must be in [1, 16], got {bits}")
