"""Deterministic random-number-generator plumbing.

Every stochastic component in the library accepts either an integer seed or a
:class:`numpy.random.Generator`.  These helpers normalise that input and derive
independent child generators so that experiments are reproducible end to end.
"""

from __future__ import annotations

import numpy as np

RngLike = "int | np.random.Generator | None"


def ensure_rng(rng: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any accepted seed form.

    ``None`` yields a freshly seeded generator (non-reproducible); an ``int``
    seeds a new generator; an existing generator is returned unchanged.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"expected int, Generator or None, got {type(rng).__name__}")


def derive_rng(rng: int | np.random.Generator | None, *tags: object) -> np.random.Generator:
    """Derive an independent generator from ``rng`` and a sequence of tags.

    The same ``(rng, tags)`` pair always yields the same stream, while
    different tags yield statistically independent streams.  Tags may be
    strings or integers (e.g. layer names, epoch numbers).
    """
    base = ensure_rng(rng)
    # Hash the tags into a stable 64-bit mix without using Python's salted hash.
    mix = np.uint64(0x9E3779B97F4A7C15)
    for tag in tags:
        for byte in str(tag).encode("utf-8"):
            mix = np.uint64((int(mix) ^ byte) * 0x100000001B3 % (1 << 64))
    child_seed = int(base.integers(0, 2**63)) ^ int(mix)
    return np.random.default_rng(child_seed % (1 << 63))
