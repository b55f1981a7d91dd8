"""Kernels that compute directly on GOBO's compressed representation.

The paper's latency/energy argument (Sections V-VI) is that the FP32 weight
matrix never crosses DRAM: the accelerator streams ``bits``-wide centroid
indexes and decodes them next to the processing elements, so off-chip
traffic is the compressed tensor and the decoded weights live only in
on-chip buffers for as long as the PE array needs them.

:class:`LookupKernel` is the CPU analogue.  Its resident state is one
index per group of ``g`` adjacent codes in a row, a per-layer **tuple
table** that maps each index to the ``g`` float64 centroids it names, and
the FP32 outliers.  ``g`` comes from ``(bits, shape)`` alone
(:func:`group_size`): the largest of 4 and 2 whose index array plus table
fit in the one byte per weight a plain code matrix would take, else 1, where
the index is the code and the table is the centroid table.  So a 768x768
3-bit layer holds a ``uint16`` per four weights and a 128 KiB table, and
resident state never exceeds the one code per weight (``uint8``, or
``uint16`` for 9-16-bit codes) it replaces, plus the outliers.

For ``y = x @ W.T`` each call walks the output rows in bands sized so that
one decoded band is about ``_TILE_BYTES`` (a cache-sized tile, the
software stand-in for the PE buffer), or as many rows as ``x`` has when
that is more:

1. gather the band's indexes through the tuple table into a scratch tile
   (one ``np.take`` of ``8 * g``-byte items — the decode, ``g`` weights
   per element),
2. overwrite the band's outlier slots with their FP32 values, which makes
   the tile exactly the dequantized rows,
3. ``x @ tile.T`` into the band's output columns (BLAS).

Rows whose width is not a multiple of ``g`` are padded with code 0; the
tile keeps the padded row stride and BLAS reads only its first
``in_features`` columns.  So batched calls run at BLAS speed on a tile that
is still in cache, a call's only weight-shaped scratch is that one tile,
and the results match :func:`dequantize_matmul` up to BLAS summation order
(bit-exact on exactly representable inputs).  The tile is allocated per
call, never stored on the kernel, so threads can share one kernel.

An embedding table is the same kind of tensor, read by rows instead of
multiplied: :meth:`LookupKernel.gather` decodes only the requested rows
through the same index grid, tuple table and outlier patch, so a served
model keeps its tables as codes too (:class:`repro.nn.QuantizedEmbedding`)
and the rows equal the decoded table's bit for bit.

:func:`dequantize_matmul` is the comparison baseline the benchmarks and the
CI perf gate measure against: decode the whole tensor (bit-unpack, outlier
scatter, centroid gather) on every call, then BLAS — what serving from a
compressed archive costs without a prepared kernel.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.quantizer import GoboQuantizedTensor
from repro.errors import SerializationError, ShapeError
from repro.obs import recorder as obs

#: Bytes of decoded weights per band of output rows: a cache-sized tile.
#: 512 KiB decoded ~10% faster than 256 KiB at 1-32 rows on BERT-base
#: shapes (2 MiB of L2 per core); 768 KiB gained nothing more.
_TILE_BYTES = 512 * 1024


def _compute_dtype(x: np.ndarray) -> np.dtype:
    """float32 stays float32 (the paper's decode target); everything else
    is promoted to the substrate's float64."""
    if x.dtype == np.float32:
        return np.dtype(np.float32)
    return np.dtype(np.float64)


def group_size(bits: int, shape: tuple[int, int]) -> int:
    """Codes per gather element for a ``bits``-wide tensor of ``shape``.

    The largest ``g`` of 4 and 2 with ``g * bits <= 16`` whose index array
    (one ``uint8``/``uint16`` per ``g`` codes of a row, rows padded to a
    multiple of ``g``) plus its ``2**(g * bits)``-entry table of ``g``
    float64 centroids fit in one byte per weight; otherwise 1.  Numpy's
    ``take`` copies 8-, 16- and 32-byte items with fixed-size copies, so a
    gather of four centroids costs about twice a gather of one.
    """
    rows, cols = shape
    for g in (4, 2):
        if g * bits > 16:
            continue
        index_bytes = rows * -(-cols // g) * (1 if g * bits <= 8 else 2)
        table_bytes = (1 << (g * bits)) * g * 8
        if index_bytes + table_bytes <= rows * cols:
            return g
    return 1


class LookupKernel:
    """Prepared decode state for one 2-D quantized tensor: tiled
    decode-and-GEMM (:meth:`matmul`) and row gather (:meth:`gather`).

    Parameters
    ----------
    tensor:
        A :class:`~repro.core.quantizer.GoboQuantizedTensor` of 2-D shape
        ``(out_features, in_features)`` — the HuggingFace FC convention, so
        :meth:`matmul` computes ``x @ W.T`` exactly like
        :class:`repro.nn.Linear`; an embedding table's rows are its tokens,
        so :meth:`gather` looks them up like :class:`repro.nn.Embedding`.

    The resident state is one index per ``group`` adjacent codes of a row
    and the tuple table those indexes name (see :func:`group_size`), plus
    the outliers.  Raises :class:`~repro.errors.SerializationError` when a
    code indexes past the centroid table or an outlier position is out of
    order or outside the tensor — malformed tensors come from archives,
    and either defect would otherwise decode silently wrong weights.
    """

    def __init__(self, tensor: GoboQuantizedTensor) -> None:
        if len(tensor.shape) != 2:
            raise ShapeError(
                f"LookupKernel requires a 2-D weight tensor, got shape {tensor.shape}"
            )
        self.tensor = tensor
        self.out_features, self.in_features = tensor.shape
        self.bits = tensor.bits
        #: The centroid table in float64; a tensor without centroids gets
        #: one zero entry, so the code-0 outlier slots still index it.
        self.centroids_ext = np.asarray(tensor.centroids, dtype=np.float64).ravel()
        if self.centroids_ext.size == 0:
            self.centroids_ext = np.zeros(1)
        #: Codes per index (and centroids per tuple-table entry).
        self.group = group_size(self.bits, tensor.shape)

        with obs.span(
            "kernels.prepare", rows=self.out_features, cols=self.in_features,
            bits=self.bits, group=self.group,
        ):
            total = tensor.total_count
            positions = np.asarray(tensor.outlier_positions, dtype=np.int64)
            if positions.size and (
                positions[0] < 0
                or positions[-1] >= total
                or np.any(np.diff(positions) <= 0)
            ):
                raise SerializationError(
                    f"quantized tensor of shape {tensor.shape} has outlier "
                    f"positions that are not strictly ascending within [0, {total})"
                )
            codes = tensor.codes()
            if codes.size and int(codes.max()) >= tensor.centroids.size:
                raise SerializationError(
                    f"quantized tensor of shape {tensor.shape} has code "
                    f"{int(codes.max())} but only {tensor.centroids.size} centroids"
                )
            g = self.group
            #: Row stride of the index grid and of the decoded tile.
            self._stride = -(-self.in_features // g) * g
            dense = np.zeros(
                (self.out_features, self._stride),
                dtype=np.uint8 if self.bits <= 8 else np.uint16,
            )
            gaussian = np.ones(total, dtype=bool)
            gaussian[positions] = False
            # Outlier slots and the padding columns hold code 0.
            dense[:, : self.in_features][gaussian.reshape(tensor.shape)] = codes
            if g == 1:
                index, table = dense, self.centroids_ext[:, None]
            else:
                index = np.zeros(
                    (self.out_features, self._stride // g),
                    dtype=np.uint8 if g * self.bits <= 8 else np.uint16,
                )
                for j in range(g):
                    index |= dense[:, j::g].astype(index.dtype) << (j * self.bits)
                entries = np.arange(1 << (g * self.bits))
                shifts = self.bits * np.arange(g)
                # Codes past the centroid table never occur (checked above).
                centroids = np.zeros(1 << self.bits)
                centroids[: self.centroids_ext.size] = self.centroids_ext[: centroids.size]
                table = centroids[(entries[:, None] >> shifts) & ((1 << self.bits) - 1)]
            #: One index per ``group`` codes, row-major.
            self._index = index
            #: ``(2**(group * bits), group)`` float64: the centroids each
            #: index names, in row order.
            self._table = table
            if self._stride != self.in_features:
                rows, cols = np.divmod(positions, self.in_features)
                positions = rows * self._stride + cols
            #: Outlier positions in the padded ``(out_features, _stride)`` grid.
            self._outlier_positions = positions
            self._outlier_values = np.asarray(tensor.outlier_values, dtype=np.float64)

        obs.counter("kernels.prepared")
        obs.counter("kernels.prepared_bytes", self.prepared_nbytes)

    # ------------------------------------------------------------------ sizes
    @property
    def prepared_nbytes(self) -> int:
        """Resident bytes of the prepared state: the index grid, the tuple
        table, the outliers and the centroid table (once when the tuple
        table is the centroid table)."""
        centroids = 0 if self.group == 1 else self.centroids_ext.nbytes
        return int(
            self._index.nbytes
            + self._table.nbytes
            + self._outlier_positions.nbytes
            + self._outlier_values.nbytes
            + centroids
        )

    # ----------------------------------------------------------------- compute
    def matmul(self, x: np.ndarray) -> np.ndarray:
        """``x @ W.T`` for ``x`` of shape ``(..., in_features)``.

        Decodes one cache-sized band of ``W`` at a time and multiplies it
        by BLAS; the full weight matrix is never built.  Float32 inputs
        are computed in float32 (the paper's decode target), everything
        else in float64.
        """
        x = np.asarray(x)
        if x.ndim == 0 or x.shape[-1] != self.in_features:
            raise ShapeError(
                f"LookupKernel expected last dim {self.in_features}, "
                f"got input shape {x.shape}"
            )
        dtype = _compute_dtype(x)
        lead = x.shape[:-1]
        rows = math.prod(lead)
        x2 = np.ascontiguousarray(x.reshape(rows, self.in_features), dtype=dtype)
        y = np.empty((rows, self.out_features), dtype=dtype)

        in_f, stride, g = self.in_features, self._stride, self.group
        # BLAS repacks x on every call, so a band never has fewer rows than
        # x: a narrower one would spend more time packing than multiplying.
        band = max(1, _TILE_BYTES // max(1, stride * dtype.itemsize), rows)
        table = self._table.astype(dtype, copy=False)
        positions = self._outlier_positions
        values = self._outlier_values.astype(dtype, copy=False)
        tile = np.empty((min(band, self.out_features), stride), dtype=dtype)
        for start in range(0, self.out_features, band):
            stop = min(start + band, self.out_features)
            decoded = tile[: stop - start]
            # Indexes were range-checked at prepare, so "clip" never clips;
            # it only skips the bounds-checking buffer of the default mode.
            np.take(
                table, self._index[start:stop], axis=0, mode="clip",
                out=decoded.reshape(stop - start, stride // g, g),
            )
            lo, hi = np.searchsorted(positions, (start * stride, stop * stride))
            decoded.reshape(-1)[positions[lo:hi] - start * stride] = values[lo:hi]
            np.matmul(x2, decoded[:, :in_f].T, out=y[:, start:stop])

        obs.counter("kernels.lookup_matmul_calls")
        obs.counter("kernels.lookup_matmul_rows", rows)
        return y.reshape(*lead, self.out_features)

    __call__ = matmul

    def gather(self, ids: np.ndarray) -> np.ndarray:
        """Rows ``W[ids]`` in float64, shape ``(*ids.shape, in_features)``.

        The embedding lookup on the compressed table: only the requested
        rows are decoded, through the same index grid, tuple table and
        outlier patch as :meth:`matmul`, so each row equals that row of
        ``tensor.dequantize(np.float64)`` bit for bit.  Ids are checked as
        :class:`repro.nn.Embedding` checks them: non-integer ids raise
        ``TypeError``, and ids outside ``[0, out_features)`` raise
        ``IndexError`` (a negative id does not wrap).
        """
        ids = np.asarray(ids)
        if not np.issubdtype(ids.dtype, np.integer):
            raise TypeError(f"embedding ids must be integers, got {ids.dtype}")
        flat = ids.reshape(-1)
        if flat.size and (flat.min() < 0 or flat.max() >= self.out_features):
            raise IndexError(
                f"embedding ids out of range [0, {self.out_features}): "
                f"min={flat.min()}, max={flat.max()}"
            )
        flat = flat.astype(np.int64, copy=False)
        n, stride = flat.size, self._stride
        # Indexes were range-checked at prepare, so "clip" never clips.
        rows = np.take(self._table, self._index[flat], axis=0, mode="clip").reshape(n, stride)
        positions = self._outlier_positions
        if positions.size:
            # Outliers of table row r sit in [r * stride, (r + 1) * stride)
            # of the padded grid: write each gathered row's run of them.
            starts = flat * stride
            lo, hi = np.searchsorted(positions, (starts, starts + stride))
            counts = hi - lo
            run = np.repeat(np.arange(n), counts)  # the gathered row of each outlier
            k = np.arange(run.size) + (lo - np.cumsum(counts) + counts)[run]
            shift = (np.arange(n) * stride - starts)[run]
            rows.reshape(-1)[positions[k] + shift] = self._outlier_values[k]

        obs.counter("kernels.lookup_gather_calls")
        obs.counter("kernels.lookup_gather_rows", n)
        return rows[:, : self.in_features].reshape(*ids.shape, self.in_features)


def lookup_matmul(x: np.ndarray, tensor: GoboQuantizedTensor) -> np.ndarray:
    """One-shot ``x @ W.T`` on the compressed ``tensor``.

    Convenience wrapper that builds a :class:`LookupKernel` per call; for a
    serving path, construct the kernel once (see
    :class:`repro.nn.QuantizedLinear`).
    """
    return LookupKernel(tensor).matmul(x)


def dequantize_matmul(x: np.ndarray, tensor: GoboQuantizedTensor) -> np.ndarray:
    """The decode-per-call baseline: reconstruct ``W`` in floating point,
    then ``x @ W.T`` via BLAS.

    This is what serving from a compressed archive costs without a prepared
    kernel, and the denominator of the ``BENCH_kernels.json`` speedups the
    CI perf gate enforces.
    """
    x = np.asarray(x)
    if len(tensor.shape) != 2:
        raise ShapeError(
            f"dequantize_matmul requires a 2-D weight tensor, got shape {tensor.shape}"
        )
    if x.ndim == 0 or x.shape[-1] != tensor.shape[1]:
        raise ShapeError(
            f"dequantize_matmul expected last dim {tensor.shape[1]}, "
            f"got input shape {x.shape}"
        )
    dtype = _compute_dtype(x)
    weights = tensor.dequantize(dtype=dtype)
    return x.astype(dtype, copy=False) @ weights.T
