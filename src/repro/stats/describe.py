"""Descriptive statistics of weight tensors.

Used by the Figure 1 reproduction to show that per-layer transformer weights
closely follow a Gaussian distribution with a small heavy-tail fringe.
scipy is imported inside the functions that call it: importing
``scipy.stats`` costs most of a second, and quantizing or serving a model
never needs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError


@dataclass(frozen=True)
class WeightSummary:
    """Summary statistics of one weight tensor."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    skewness: float
    excess_kurtosis: float

    @property
    def range_in_sigmas(self) -> float:
        """Full value range expressed in standard deviations."""
        if self.std == 0.0:
            return 0.0
        return (self.maximum - self.minimum) / self.std


def summarize_weights(values: np.ndarray) -> WeightSummary:
    """Compute :class:`WeightSummary` for ``values`` (any shape)."""
    from scipy import stats as sp_stats

    flat = np.asarray(values, dtype=np.float64).ravel()
    if flat.size == 0:
        raise ShapeError("cannot summarize an empty array")
    std = float(flat.std())
    # Higher moments are undefined for (near-)constant data; report 0.
    skewness = float(sp_stats.skew(flat)) if std > 0 else 0.0
    excess_kurtosis = float(sp_stats.kurtosis(flat)) if std > 0 else 0.0
    return WeightSummary(
        count=int(flat.size),
        mean=float(flat.mean()),
        std=std,
        minimum=float(flat.min()),
        maximum=float(flat.max()),
        skewness=skewness,
        excess_kurtosis=excess_kurtosis,
    )


def gaussian_overlap(values: np.ndarray, bins: int = 64) -> float:
    """Histogram overlap between ``values`` and their fitted Gaussian, in [0, 1].

    1.0 means the empirical distribution matches the Gaussian fit exactly;
    transformer layers typically score above ~0.9, which is the paper's
    "weights closely follow a Gaussian distribution" observation made
    quantitative.
    """
    from scipy import stats as sp_stats

    flat = np.asarray(values, dtype=np.float64).ravel()
    if flat.size == 0:
        raise ShapeError("cannot compare an empty array")
    std = flat.std()
    if std == 0.0:
        return 1.0
    mean = flat.mean()
    lo, hi = mean - 5 * std, mean + 5 * std
    clipped = np.clip(flat, lo, hi)
    counts, edges = np.histogram(clipped, bins=bins, range=(lo, hi))
    empirical = counts / flat.size
    cdf = sp_stats.norm(loc=mean, scale=std).cdf(edges)
    gaussian = np.diff(cdf)
    return float(np.minimum(empirical, gaussian).sum())
