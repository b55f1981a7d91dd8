"""Weight initializers.

BERT initializes weights from a normal with std 0.02 (truncated at two
sigmas in the release); a plain normal with the same std is used here, so
that tiny trained models and synthetic full-scale weight sets share the
distribution shape the paper observes (Figure 1b).
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import ensure_rng


def normal(
    shape: tuple[int, ...],
    std: float = 0.02,
    mean: float = 0.0,
    rng: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Plain normal initialization."""
    return ensure_rng(rng).normal(mean, std, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float64)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=np.float64)
