"""Shared utilities: RNG handling, bit packing, table rendering, serialization."""

from repro.utils.bitpack import pack_bits, packed_nbytes, unpack_bits
from repro.utils.rng import derive_rng, ensure_rng
from repro.utils.tables import format_table

__all__ = [
    "derive_rng",
    "ensure_rng",
    "format_table",
    "pack_bits",
    "packed_nbytes",
    "unpack_bits",
]
