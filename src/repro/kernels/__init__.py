"""Compute on the compressed representation: tiled decode-and-GEMM kernels.

GOBO's inference story (paper Sections V-VI) never moves FP32 weights
through DRAM: the accelerator streams 3-bit centroid indexes and decodes
them next to the processing elements.  This package is the CPU analogue:

* :class:`LookupKernel` — keeps one code per weight (1 B at up to 8 bits)
  plus the FP32 outliers resident, and per call decodes a cache-sized band
  of ``W`` at a time into a scratch tile that BLAS multiplies
  (``x @ W.T`` without materializing ``W``),
* :func:`lookup_matmul` — one-shot convenience wrapper,
* :func:`dequantize_matmul` — the decode-the-whole-matrix-then-BLAS
  baseline the perf gate (``BENCH_kernels.json``) compares against.

:class:`repro.nn.QuantizedLinear` routes a ``Linear`` forward through
:class:`LookupKernel`, and ``load_quantized_model(..., lazy=True)`` feeds
these kernels straight from a memory-mapped archive.
"""

from repro.kernels.lookup import LookupKernel, dequantize_matmul, lookup_matmul

__all__ = [
    "LookupKernel",
    "dequantize_matmul",
    "lookup_matmul",
]
