"""Matmul kernels that compute directly on GOBO's compressed representation.

The paper's latency/energy argument (Sections V-VI) is that the FP32 weight
matrix never crosses DRAM: the accelerator streams ``bits``-wide centroid
indexes and decodes them next to the processing elements, so off-chip
traffic is the compressed tensor and the decoded weights live only in
on-chip buffers for as long as the PE array needs them.

:class:`LookupKernel` is the CPU analogue.  Its resident state is one code
per weight (``uint8``; ``uint16`` for the 9-16-bit codes some methods
store) in row-major ``(out_features, in_features)`` order, plus the FP32
outliers and the centroid table.  For ``y = x @ W.T`` each call walks the
output rows in bands sized so that one decoded band is about
``_TILE_BYTES`` (a cache-sized tile, the software stand-in for the PE
buffer), or as many rows as ``x`` has when that is more:

1. gather the band's codes through the centroid table into a scratch tile
   (``np.take`` — the decode),
2. overwrite the band's outlier slots with their FP32 values, which makes
   the tile exactly the dequantized rows,
3. ``x @ tile.T`` into the band's output columns (BLAS).

So batched calls run at BLAS speed on a tile that is still in cache, a
call's only weight-shaped scratch is that one tile, and the results match
:func:`dequantize_matmul` up to BLAS summation order (bit-exact on exactly
representable inputs).  The tile is allocated per call, never stored on
the kernel, so threads can share one kernel.

:func:`dequantize_matmul` is the comparison baseline the benchmarks and the
CI perf gate measure against: decode the whole tensor (bit-unpack, outlier
scatter, centroid gather) on every call, then BLAS — what serving from a
compressed archive costs without a prepared kernel.
"""

from __future__ import annotations

import numpy as np

from repro.core.quantizer import GoboQuantizedTensor
from repro.errors import SerializationError, ShapeError
from repro.obs import recorder as obs

#: Bytes of decoded weights per band of output rows: a cache-sized tile.
_TILE_BYTES = 256 * 1024


def _compute_dtype(x: np.ndarray) -> np.dtype:
    """float32 stays float32 (the paper's decode target); everything else
    is promoted to the substrate's float64."""
    if x.dtype == np.float32:
        return np.dtype(np.float32)
    return np.dtype(np.float64)


class LookupKernel:
    """Prepared tiled decode-and-GEMM state for one 2-D quantized tensor.

    Parameters
    ----------
    tensor:
        A :class:`~repro.core.quantizer.GoboQuantizedTensor` of 2-D shape
        ``(out_features, in_features)`` — the HuggingFace FC convention, so
        :meth:`matmul` computes ``x @ W.T`` exactly like
        :class:`repro.nn.Linear`.

    Raises :class:`~repro.errors.SerializationError` when a code indexes
    past the centroid table or an outlier position is out of order or
    outside the tensor — malformed tensors come from archives, and either
    defect would otherwise decode silently wrong weights.
    """

    def __init__(self, tensor: GoboQuantizedTensor) -> None:
        if len(tensor.shape) != 2:
            raise ShapeError(
                f"LookupKernel requires a 2-D weight tensor, got shape {tensor.shape}"
            )
        self.tensor = tensor
        self.out_features, self.in_features = tensor.shape
        self.bits = tensor.bits
        #: The centroid table the tile gathers from, in float64; a tensor
        #: without centroids gets one zero entry, so the code-0 outlier
        #: slots still index it.
        self.centroids_ext = np.asarray(tensor.centroids, dtype=np.float64).ravel()
        if self.centroids_ext.size == 0:
            self.centroids_ext = np.zeros(1)

        with obs.span(
            "kernels.prepare", rows=self.out_features, cols=self.in_features,
            bits=self.bits,
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
            dense = np.zeros(total, dtype=np.uint8 if self.bits <= 8 else np.uint16)
            gaussian = np.ones(total, dtype=bool)
            gaussian[positions] = False
            dense[gaussian] = codes
            #: One code per weight, row-major; outlier slots hold code 0.
            self._codes = dense.reshape(tensor.shape)
            self._outlier_positions = positions
            self._outlier_values = np.asarray(tensor.outlier_values, dtype=np.float64)

        obs.counter("kernels.prepared")
        obs.counter("kernels.prepared_bytes", self.prepared_nbytes)

    # ------------------------------------------------------------------ sizes
    @property
    def prepared_nbytes(self) -> int:
        """Resident bytes of the prepared state: one code per weight plus the
        outliers and the centroid table."""
        return int(
            self._codes.nbytes
            + self._outlier_positions.nbytes
            + self._outlier_values.nbytes
            + self.centroids_ext.nbytes
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
        rows = int(np.prod(lead)) if lead else 1
        x2 = np.ascontiguousarray(x.reshape(rows, self.in_features), dtype=dtype)
        y = np.empty((rows, self.out_features), dtype=dtype)

        in_f = self.in_features
        # BLAS repacks x on every call, so a band never has fewer rows than
        # x: a narrower one would spend more time packing than multiplying.
        band = max(1, _TILE_BYTES // max(1, in_f * dtype.itemsize), rows)
        table = self.centroids_ext.astype(dtype, copy=False)
        positions = self._outlier_positions
        values = self._outlier_values.astype(dtype, copy=False)
        tile = np.empty((min(band, self.out_features), in_f), dtype=dtype)
        for start in range(0, self.out_features, band):
            stop = min(start + band, self.out_features)
            decoded = tile[: stop - start]
            # Codes were range-checked at prepare, so "clip" never clips;
            # it only skips the bounds-checking buffer of the default mode.
            np.take(table, self._codes[start:stop], out=decoded, mode="clip")
            lo, hi = np.searchsorted(positions, (start * in_f, stop * in_f))
            decoded.reshape(-1)[positions[lo:hi] - start * in_f] = values[lo:hi]
            np.matmul(x2, decoded.T, out=y[:, start:stop])

        obs.counter("kernels.lookup_matmul_calls")
        obs.counter("kernels.lookup_matmul_rows", rows)
        return y.reshape(*lead, self.out_features)

    __call__ = matmul


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
