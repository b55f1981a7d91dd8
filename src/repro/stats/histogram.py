"""Weight-distribution histograms (Figure 1b of the paper)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError


@dataclass(frozen=True)
class Histogram:
    """A 1-D histogram: bin edges (length ``n+1``) and counts (length ``n``)."""

    edges: np.ndarray
    counts: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        """Bin center coordinates."""
        return (self.edges[:-1] + self.edges[1:]) / 2.0

    @property
    def total(self) -> int:
        """Total number of counted samples."""
        return int(self.counts.sum())

    def normalized(self) -> np.ndarray:
        """Counts as fractions summing to 1 (zeros if the histogram is empty)."""
        total = self.counts.sum()
        if total == 0:
            return np.zeros_like(self.counts, dtype=np.float64)
        return self.counts / total

    def as_series(self) -> list[tuple[float, int]]:
        """(center, count) pairs, the series a plotting tool would consume."""
        return [(float(c), int(n)) for c, n in zip(self.centers, self.counts)]


def weight_histogram(
    values: np.ndarray,
    bins: int = 100,
    value_range: tuple[float, float] | None = None,
) -> Histogram:
    """Histogram of a weight tensor, matching Figure 1b's rendering inputs."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    if flat.size == 0:
        raise ShapeError("cannot histogram an empty array")
    counts, edges = np.histogram(flat, bins=bins, range=value_range)
    return Histogram(edges=edges, counts=counts)
