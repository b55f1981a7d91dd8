"""Centroid refinement: GOBO's L1-monitored iteration vs classic K-Means.

Both algorithms share the assignment step (nearest centroid — identical in
1-D under L1 and L2) and the update step (cluster mean).  They differ in when
they stop:

* **GOBO** monitors the total L1-norm (sum of |weight - centroid|) after each
  update and stops as soon as it stops improving — the paper observes the
  minimum is reached in about 7 iterations for 3-bit quantization.
* **K-Means** iterates until the cluster *assignments* reach a fixed point,
  which takes roughly 9x as many iterations (Figure 2) and — because the mean
  update optimizes L2, not L1 — lands on centroids with *worse* L1, which is
  what correlates with inference accuracy.

Both record a :class:`ConvergenceTrace` so Figure 2 can be regenerated.

**Sorted runs.**  In one dimension every nearest-centroid cluster is a
contiguous run of the sorted values: cluster ``j`` holds the values between
midpoints ``j-1`` and ``j``.  Both loops therefore sort the values once and
keep prefix sums of them plus their total sum of squares
(:class:`_SortedValues`).  An iteration's state is its ``k+1`` run
boundaries, ``searchsorted`` of the ``k-1`` midpoints into the sorted copy
(:class:`_Runs`), so the mean update, the L1/L2 trace entry, GOBO's
stop-at-the-L1-minimum test and the K-Means fixpoint test ("boundaries
unchanged") each cost O(k log n), not O(n).  The O(n) work of a call is the
sort, the prefix sums, the equal-population init read off the same sorted
copy, and one :func:`~repro.core.binning.assign_to_centroids` for the
returned centroids.  The prefix sums are two flat arrays written with
``out=`` and their error pass runs block by block, so the sorted copy and
the two prefix arrays are a call's only allocations of size n.

*Numerics.*  The prefix sums carry the running sum of their own rounding
errors, so a run's sum is as accurate as a compensated sum, and float64
centroids and L1 norms agree with a full pass over the values to about
1e-15 and 1e-14 relative.  The L2 norm is the total sum of squares minus
per-run terms that cancel it by about ``k**2``, so at 8 bits it agrees to
about 3e-11.  That has not changed a float32 centroid table on any measured
model; the archive goldens pin it.  The one decision that can differ from
a full pass is GOBO's first comparison when the equal-population init is
already a fixpoint: L1 then moves by rounding alone, and either loop may
stop one step later.  Every quantity is computed from the sorted copy, so
the result does not depend on the order of the input: shuffling the values
leaves the centroids, the iteration count and the L1/L2 trace bit-identical
and permutes the assignment to match.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.binning import (
    CACHE_BLOCK,
    assign_to_centroids,
    equal_population_centroids_sorted,
)
from repro.errors import QuantizationError
from repro.jobs.watchdog import checkpoint
from repro.obs import recorder as obs


@dataclass
class ConvergenceTrace:
    """Per-iteration L1/L2 norms of a centroid refinement run."""

    l1_norms: list[float] = field(default_factory=list)
    l2_norms: list[float] = field(default_factory=list)

    def record(self, values: np.ndarray, centroids: np.ndarray, assignment: np.ndarray) -> None:
        residual = values - centroids[assignment]
        self.append(float(np.abs(residual).sum()), float(np.square(residual).sum()))

    def append(self, l1: float, l2: float) -> None:
        self.l1_norms.append(l1)
        self.l2_norms.append(l2)

    @property
    def iterations(self) -> int:
        return len(self.l1_norms)

    def as_series(self) -> list[tuple[int, float, float]]:
        """(iteration, L1, L2) rows — the Figure 2 series."""
        return [
            (i, l1, l2)
            for i, (l1, l2) in enumerate(zip(self.l1_norms, self.l2_norms))
        ]


@dataclass(frozen=True)
class ClusteringResult:
    """Final centroids, assignments and the convergence trace of a run.

    ``final_l1``/``final_l2`` belong to the *returned* state — for GOBO that
    is the best (minimum-L1) iteration, which is not necessarily the last
    trace entry (the trace keeps the worsening step that triggered the stop).
    """

    centroids: np.ndarray
    assignment: np.ndarray
    trace: ConvergenceTrace
    converged: bool
    final_l1: float
    final_l2: float

    @property
    def iterations(self) -> int:
        return self.trace.iterations

    def l1_norm(self) -> float:
        return self.final_l1

    def l2_norm(self) -> float:
        return self.final_l2


class _Runs(NamedTuple):
    """One clustering state: the nearest-centroid runs of the sorted values.

    ``bounds`` holds ``k+1`` indexes into the sorted values, with
    ``bounds[0] = 0`` and ``bounds[k] = n``: cluster ``j`` is
    ``ordered[bounds[j]:bounds[j+1]]``.  ``counts`` and ``sums`` are each
    run's size and value sum; ``l1``/``l2`` are the total residual norms of
    every run against its centroid.
    """

    bounds: np.ndarray
    counts: np.ndarray
    sums: np.ndarray
    l1: float
    l2: float

    def means(self, previous: np.ndarray) -> np.ndarray:
        """Run means, sorted; an empty run keeps its previous centroid."""
        centroids = previous.copy()
        np.divide(self.sums, self.counts, out=centroids, where=self.counts > 0)
        centroids.sort()
        return centroids


class _SortedValues:
    """The values sorted once, with compensated prefix sums and their sum of squares.

    ``total`` is the running sum of the sorted values and ``carry`` the
    running sum of its exact per-step rounding errors (Knuth's TwoSum), both
    ``n + 1`` long with a leading zero.  The sum of ``ordered[j:i]`` is
    ``(total[i] - total[j]) + (carry[i] - carry[j])``, as accurate as a
    compensated sum however far the running sum has grown from the run's own
    values.  :meth:`runs` costs O(k log n): two ``searchsorted`` calls of
    ``k`` or ``k-1`` keys, and arithmetic on ``k``-element arrays.
    """

    def __init__(self, flat: np.ndarray) -> None:
        n = flat.size
        self.ordered = np.sort(flat)
        # -0.0 becomes 0.0: the two compare equal, so their sorted order
        # follows the input's, and a sum over zeros could take either sign.
        self.ordered += 0.0
        self.total = np.empty(n + 1, dtype=np.float64)
        self.carry = np.empty(n + 1, dtype=np.float64)
        # carry[1:] is the scratch for the squares until the carries fill it.
        self.sum_sq = float(np.square(self.ordered, out=self.carry[1:]).sum())
        self.total[0] = self.carry[0] = self.carry[1] = 0.0
        running = self.total[1:]
        np.cumsum(self.ordered, out=running)
        # TwoSum of each step running[i] = running[i-1] + ordered[i]:
        # step = running[i] - running[i-1], and its rounding error is
        # (running[i-1] - (running[i] - step)) + (ordered[i] - step).  Blocks
        # keep the operands in cache and reuse one small scratch array.
        errors = self.carry[2:]
        step = np.empty(min(n - 1, CACHE_BLOCK), dtype=np.float64)
        for lo in range(0, n - 1, CACHE_BLOCK):
            hi = min(lo + CACHE_BLOCK, n - 1)
            before, after = running[lo:hi], running[lo + 1 : hi + 1]
            error, block_step = errors[lo:hi], step[: hi - lo]
            np.subtract(after, before, out=block_step)
            np.subtract(after, block_step, out=error)
            np.subtract(before, error, out=error)
            np.subtract(self.ordered[lo + 1 : hi + 1], block_step, out=block_step)
            error += block_step
        np.cumsum(errors, out=errors)
        self._ends = (np.zeros(1, dtype=np.int64), np.full(1, n, dtype=np.int64))

    def runs(self, centroids: np.ndarray) -> _Runs:
        """The runs of the nearest-centroid clusters of sorted ``centroids``."""
        midpoints = (centroids[:-1] + centroids[1:]) / 2.0
        first, last = self._ends
        # Same midpoints and tie rule as assign_to_centroids: a value equal
        # to a midpoint belongs to the lower cluster.
        bounds = np.concatenate(
            (first, self.ordered.searchsorted(midpoints, side="right"), last)
        )
        counts = bounds[1:] - bounds[:-1]
        total, carry = self.total[bounds], self.carry[bounds]
        sums = (total[1:] - total[:-1]) + (carry[1:] - carry[:-1])
        # Split each run at its centroid: a value x below centroid c adds
        # c - x to the L1 norm, a value above it x - c.  A rounded midpoint
        # lies between its two centroids, so the split falls inside the run.
        split = self.ordered.searchsorted(centroids, side="right")
        below = split - bounds[:-1]
        sum_below = (self.total[split] - total[:-1]) + (self.carry[split] - carry[:-1])
        l1 = float((centroids * (2 * below - counts) + (sums - 2.0 * sum_below)).sum())
        # Per run, sum (x - c)^2 = sum x^2 - 2c sum x + n c^2, and the sum x^2
        # terms of all runs add up to sum_sq.
        l2 = self.sum_sq + float((centroids * (centroids * counts - 2.0 * sums)).sum())
        # Both norms are >= 0; rounding can leave a tiny negative at zero.
        return _Runs(bounds, counts, sums, max(l1, 0.0), max(l2, 0.0))


def _prepare(
    values: np.ndarray, bits: int, initial_centroids: np.ndarray | None
) -> tuple[np.ndarray, _SortedValues, np.ndarray]:
    """Validate the inputs; return the flat values, their sorted copy and the init."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    if flat.size == 0:
        raise QuantizationError("cannot cluster an empty value set")
    if not 1 <= bits <= 8:
        raise QuantizationError(f"bits must be in [1, 8], got {bits}")
    num_bins = 1 << bits
    if initial_centroids is not None:
        centroids = np.sort(np.asarray(initial_centroids, dtype=np.float64))
        if centroids.size != num_bins:
            raise QuantizationError(
                f"expected {num_bins} initial centroids, got {centroids.size}"
            )
    sorted_values = _SortedValues(flat)
    if initial_centroids is None:
        centroids = equal_population_centroids_sorted(sorted_values.ordered, num_bins)
    return flat, sorted_values, centroids


def gobo_cluster(
    values: np.ndarray,
    bits: int,
    max_iterations: int = 50,
    initial_centroids: np.ndarray | None = None,
) -> ClusteringResult:
    """GOBO centroid selection: iterate L1 reassignment, stop at the L1 minimum.

    Steps 3-7 of Section IV: equal-population init, then alternate
    (reassign to nearest centroid, recompute means) while the total L1-norm
    keeps decreasing.  The state from the best (minimum-L1) iteration is
    returned, so a final worsening step is never kept.
    """
    flat, sorted_values, centroids = _prepare(values, bits, initial_centroids)
    trace = ConvergenceTrace()
    runs = sorted_values.runs(centroids)
    trace.append(runs.l1, runs.l2)
    best_index = 0
    best = centroids
    converged = False
    for _ in range(max_iterations):
        # Cooperative watchdog cancellation: a no-op unless the engine armed
        # a per-layer deadline (repro.jobs.watchdog, DESIGN.md §5d).
        checkpoint()
        centroids = runs.means(centroids)
        runs = sorted_values.runs(centroids)
        trace.append(runs.l1, runs.l2)
        if trace.l1_norms[-1] < trace.l1_norms[best_index]:
            best_index = len(trace.l1_norms) - 1
            best = centroids
        else:
            # L1 stopped improving: the minimum has been reached.
            converged = True
            break
    obs.trace_event(
        "clustering.l1",
        trace.l1_norms,
        method="gobo",
        bits=bits,
        iterations=trace.iterations,
        converged=converged,
        final_l1=trace.l1_norms[best_index],
    )
    return ClusteringResult(
        centroids=best,
        assignment=assign_to_centroids(flat, best),
        trace=trace,
        converged=converged,
        final_l1=trace.l1_norms[best_index],
        final_l2=trace.l2_norms[best_index],
    )


def kmeans_cluster(
    values: np.ndarray,
    bits: int,
    max_iterations: int = 300,
    initial_centroids: np.ndarray | None = None,
) -> ClusteringResult:
    """K-Means baseline: same init and updates, run to assignment fixpoint.

    Matches the paper's comparison setup ("same centroid initialization as
    GOBO ... iterations until the cluster assignments converge").  The
    assignment is at a fixpoint exactly when the run boundaries are.
    """
    flat, sorted_values, centroids = _prepare(values, bits, initial_centroids)
    trace = ConvergenceTrace()
    runs = sorted_values.runs(centroids)
    trace.append(runs.l1, runs.l2)
    converged = False
    for _ in range(max_iterations):
        checkpoint()
        centroids = runs.means(centroids)
        previous, runs = runs, sorted_values.runs(centroids)
        trace.append(runs.l1, runs.l2)
        if np.array_equal(runs.bounds, previous.bounds):
            converged = True
            break
    obs.trace_event(
        "clustering.l1",
        trace.l1_norms,
        method="kmeans",
        bits=bits,
        iterations=trace.iterations,
        converged=converged,
        final_l1=trace.l1_norms[-1],
    )
    return ClusteringResult(
        centroids=centroids,
        assignment=assign_to_centroids(flat, centroids),
        trace=trace,
        converged=converged,
        final_l1=trace.l1_norms[-1],
        final_l2=trace.l2_norms[-1],
    )
