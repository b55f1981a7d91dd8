"""Weight initializers.

BERT initializes weights from a normal with std 0.02 (truncated at two
sigmas in the release); a plain normal with the same std is used here, so
that tiny trained models and synthetic full-scale weight sets share the
distribution shape the paper observes (Figure 1b).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.utils.rng import ensure_rng

_local = threading.local()


@contextmanager
def skip_draws() -> Iterator[None]:
    """Make :func:`normal` return zeros on this thread inside the block.

    For a model whose every weight is replaced right after it is built:
    the serving registry swaps in the archive's compressed modules and
    strict-loads the rest.  Large zero arrays are not touched until
    written, so the discarded weights cost neither the draw nor the memory.
    """
    previous = getattr(_local, "skip", False)
    _local.skip = True
    try:
        yield
    finally:
        _local.skip = previous


def normal(
    shape: tuple[int, ...],
    std: float = 0.02,
    mean: float = 0.0,
    rng: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Plain normal initialization."""
    if getattr(_local, "skip", False):
        return np.zeros(shape, dtype=np.float64)
    return ensure_rng(rng).normal(mean, std, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float64)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=np.float64)
