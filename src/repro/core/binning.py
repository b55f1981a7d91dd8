"""Equal-population centroid initialization (Section IV-B, steps 3-4).

GOBO's non-linear initialization sorts the G-group weights and splits them
into ``2^bits`` bins of equal population; each bin's mean is its initial
centroid.  Dense regions of the distribution therefore receive more
centroids — the property that makes the subsequent L1 iteration converge in a
handful of steps.

:func:`assign_to_centroids` is a layer's final O(n) assignment: the index of
a value is the number of midpoints between adjacent centroids that it lies
above, counted with one vectorized comparison per midpoint over
cache-sized blocks.  On a large layer that is several times faster than a
``searchsorted`` of every value at 1-6 bits and no slower at 8; it gives
the same index for every value, NaN included.
"""

from __future__ import annotations

import numpy as np

from repro.errors import QuantizationError


def equal_population_centroids(values: np.ndarray, num_bins: int) -> np.ndarray:
    """Initial centroids: means of equal-population bins of sorted ``values``.

    Returns a sorted array of ``num_bins`` centroids.  Degenerate bins (when
    there are fewer distinct values than bins) collapse onto the same value,
    which the iteration tolerates.
    """
    flat = np.asarray(values, dtype=np.float64).ravel()
    if num_bins <= 0:
        raise QuantizationError(f"num_bins must be positive, got {num_bins}")
    if flat.size == 0:
        raise QuantizationError("cannot bin an empty value set")
    return equal_population_centroids_sorted(np.sort(flat), num_bins)


def equal_population_centroids_sorted(ordered: np.ndarray, num_bins: int) -> np.ndarray:
    """:func:`equal_population_centroids` of values that are already sorted.

    The clustering loop sorts its values once and reads the init off that
    same copy, so it calls this directly instead of sorting a second time.
    """
    # Bin b covers ordered[edges[b]:edges[b+1]] with near-equal population.
    edges = np.linspace(0, ordered.size, num_bins + 1).round().astype(np.int64).tolist()
    centroids = np.empty(num_bins, dtype=np.float64)
    previous = ordered[0]
    for b in range(num_bins):
        lo, hi = edges[b], edges[b + 1]
        if hi > lo:
            # Rounds exactly as ndarray.mean (the same sum, then one
            # division), without its per-call overhead.
            previous = ordered[lo:hi].sum() / (hi - lo)
        centroids[b] = previous
    # Bins of tied values can round out of order (two 0.7s average to 0.7,
    # the next three to 0.6999999999999998); nearest-centroid assignment
    # needs ascending centroids.
    centroids.sort()
    return centroids


def linear_centroids(values: np.ndarray, num_bins: int) -> np.ndarray:
    """Linear-quantization centroids: the range split into equal intervals.

    This is the "Linear Quantization" baseline of Table IV — bin centers of a
    uniform partition of ``[min, max]`` — which ignores the distribution and
    wastes resolution on the sparse tails.
    """
    flat = np.asarray(values, dtype=np.float64).ravel()
    if num_bins <= 0:
        raise QuantizationError(f"num_bins must be positive, got {num_bins}")
    if flat.size == 0:
        raise QuantizationError("cannot bin an empty value set")
    lo, hi = float(flat.min()), float(flat.max())
    if lo == hi:
        return np.full(num_bins, lo, dtype=np.float64)
    step = (hi - lo) / num_bins
    return lo + step * (np.arange(num_bins) + 0.5)


#: Values per block of the O(n) passes that run block by block (the count
#: here, the prefix build's error pass in :mod:`repro.core.clustering`): a
#: block and its scratch arrays stay in cache across the pass's operations.
CACHE_BLOCK = 1 << 15


def assign_to_centroids(values: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid for each value.

    Centroids must be sorted ascending.  In one dimension the nearest
    centroid under L1 and L2 coincide, so the assignment step is shared by
    GOBO's L1 iteration and the K-Means baseline; the two differ in their
    stopping rule (see :mod:`repro.core.clustering`).

    A value's index is the number of midpoints between adjacent centroids
    that it lies above, so a value on a midpoint takes the lower centroid,
    as ``np.searchsorted(midpoints, values, side="left")`` gives.  It is
    counted block by block, as the number of midpoints minus those a value
    is at or below: NaN is at or below none, so it lands above them all,
    where ``searchsorted`` sorts it.  The counters are ``uint8`` up to 256
    centroids (8 bits); the cost grows with the number of centroids.
    """
    flat = np.asarray(values, dtype=np.float64).ravel()
    centroids = np.asarray(centroids, dtype=np.float64)
    if centroids.ndim != 1 or centroids.size == 0:
        raise QuantizationError("centroids must be a non-empty 1-D array")
    if centroids.size == 1:
        return np.zeros(flat.size, dtype=np.int64)
    midpoints = (centroids[:-1] + centroids[1:]) / 2.0
    top = midpoints.size
    codes = np.empty(flat.size, dtype=np.int64)
    at_or_below = np.empty(min(flat.size, CACHE_BLOCK), dtype=np.bool_)
    above = np.empty(at_or_below.size, dtype=np.min_scalar_type(top))
    for start in range(0, flat.size, CACHE_BLOCK):
        block = flat[start : start + CACHE_BLOCK]
        mask, count = at_or_below[: block.size], above[: block.size]
        count.fill(top)
        for midpoint in midpoints.tolist():
            np.less_equal(block, midpoint, out=mask)
            np.subtract(count, mask.view(np.uint8), out=count)
        codes[start : start + block.size] = count
    return codes
