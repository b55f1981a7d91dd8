"""The sorted-run clustering loop against the full-pass loop it replaced.

:func:`~repro.core.clustering.gobo_cluster` and
:func:`~repro.core.clustering.kmeans_cluster` iterate on run boundaries of
one sorted copy of the values.  The reference below is the loop they
replaced, kept here as the test oracle: every iteration reassigns every
value and recomputes the means with ``bincount``, so each step costs O(n).

* On continuous inputs with at least 64 values per centroid, both loops take
  the same number of iterations, converge alike and return the same
  assignment; centroids and the L1/L2 traces agree within 1e-9 relative (the
  two sum in different orders).  One case is exempt from the iteration
  count: when the equal-population init is already a fixpoint, the first
  update recomputes the init's own means in another summation order, L1
  moves by rounding alone, and GOBO may stop one step earlier or later.
* The sorted loop never looks at the input order, so shuffling the input
  leaves every float bit-identical and permutes the assignment.
* Tiny and heavily tied inputs stay out of the oracle: near L1 = 0 the two
  summation orders can disagree on a stop.  They keep the invariants of
  ``test_clustering_invariants.py``.
* The compensated prefix sums are the floats of the interleaved
  ``(n + 1, 2)`` array they were once built in, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.binning import CACHE_BLOCK, assign_to_centroids, equal_population_centroids
from repro.core.clustering import (
    ClusteringResult,
    ConvergenceTrace,
    _SortedValues,
    gobo_cluster,
    kmeans_cluster,
)

RTOL = 1e-9

DISTRIBUTIONS = {
    "normal": lambda rng, n: rng.normal(0.0, 0.04, n),
    "student-t3": lambda rng, n: 0.02 * rng.standard_t(3, n),
    "uniform": lambda rng, n: rng.uniform(-0.1, 0.1, n),
}


# ------------------------------------------------------------ the reference


def reference_update(values, assignment, num_bins, previous):
    """Cluster means by one full pass; empty clusters keep their centroid."""
    sums = np.bincount(assignment, weights=values, minlength=num_bins)
    counts = np.bincount(assignment, minlength=num_bins)
    centroids = previous.copy()
    populated = counts > 0
    centroids[populated] = sums[populated] / counts[populated]
    return np.sort(centroids)


def _result(centroids, assignment, trace, converged, index):
    return ClusteringResult(
        centroids=centroids,
        assignment=assignment,
        trace=trace,
        converged=converged,
        final_l1=trace.l1_norms[index],
        final_l2=trace.l2_norms[index],
    )


def reference_gobo(values, bits, max_iterations=50):
    flat = np.asarray(values, dtype=np.float64).ravel()
    num_bins = 1 << bits
    centroids = equal_population_centroids(flat, num_bins)
    trace = ConvergenceTrace()
    assignment = assign_to_centroids(flat, centroids)
    trace.record(flat, centroids, assignment)
    best_index, best = 0, (centroids, assignment)
    converged = False
    for _ in range(max_iterations):
        centroids = reference_update(flat, assignment, num_bins, centroids)
        assignment = assign_to_centroids(flat, centroids)
        trace.record(flat, centroids, assignment)
        if trace.l1_norms[-1] < trace.l1_norms[best_index]:
            best_index = len(trace.l1_norms) - 1
            best = (centroids, assignment)
        else:
            converged = True
            break
    return _result(*best, trace, converged, best_index)


def reference_kmeans(values, bits, max_iterations=300):
    flat = np.asarray(values, dtype=np.float64).ravel()
    num_bins = 1 << bits
    centroids = equal_population_centroids(flat, num_bins)
    trace = ConvergenceTrace()
    assignment = assign_to_centroids(flat, centroids)
    trace.record(flat, centroids, assignment)
    converged = False
    for _ in range(max_iterations):
        centroids = reference_update(flat, assignment, num_bins, centroids)
        new_assignment = assign_to_centroids(flat, centroids)
        trace.record(flat, centroids, new_assignment)
        converged = np.array_equal(new_assignment, assignment)
        assignment = new_assignment
        if converged:
            break
    return _result(centroids, assignment, trace, converged, -1)


def init_is_fixpoint(values, bits) -> bool:
    """True when one update leaves the equal-population assignment as is."""
    num_bins = 1 << bits
    centroids = equal_population_centroids(values, num_bins)
    assignment = assign_to_centroids(values, centroids)
    updated = reference_update(values, assignment, num_bins, centroids)
    return np.array_equal(assign_to_centroids(values, updated), assignment)


METHODS = {"gobo": (gobo_cluster, reference_gobo), "kmeans": (kmeans_cluster, reference_kmeans)}


def _values(seed, distribution, size):
    return DISTRIBUTIONS[distribution](np.random.default_rng(seed), size)


# ------------------------------------------------------------------- oracle


@pytest.mark.parametrize("method", sorted(METHODS))
@given(
    seed=st.integers(0, 2**32 - 1),
    distribution=st.sampled_from(sorted(DISTRIBUTIONS)),
    bits=st.integers(1, 8),
    per_centroid=st.integers(64, 128),
)
@settings(max_examples=60, deadline=None)
def test_matches_full_pass_reference(method, seed, distribution, bits, per_centroid):
    values = _values(seed, distribution, per_centroid << bits)
    cluster, reference = METHODS[method]
    got, want = cluster(values, bits), reference(values, bits)

    np.testing.assert_array_equal(got.assignment, want.assignment)
    np.testing.assert_allclose(got.centroids, want.centroids, rtol=RTOL, atol=0)
    assert got.converged == want.converged
    steps = got.iterations
    if got.iterations != want.iterations:
        assert method == "gobo" and init_is_fixpoint(values, bits)
        assert abs(got.iterations - want.iterations) == 1
        steps = min(got.iterations, want.iterations)
    for norms in ("l1_norms", "l2_norms"):
        np.testing.assert_allclose(
            getattr(got.trace, norms)[:steps], getattr(want.trace, norms)[:steps],
            rtol=RTOL, atol=0,
        )
    assert got.final_l1 == pytest.approx(want.final_l1, rel=RTOL)


@pytest.mark.parametrize("bits", [1, 3, 8])
def test_init_is_the_equal_population_init(bits):
    values = _values(3, "normal", 5000)
    result = gobo_cluster(values, bits, max_iterations=0)
    np.testing.assert_array_equal(
        result.centroids, equal_population_centroids(values, 1 << bits)
    )


# ------------------------------------------------------ input order ignored


tied = st.builds(
    lambda seed, size, decimals: np.round(
        np.random.default_rng(seed).normal(0.0, 0.04, size), decimals
    ),
    st.integers(0, 2**32 - 1), st.integers(1, 3000), st.integers(1, 3),
)
continuous = st.builds(
    _values, st.integers(0, 2**32 - 1), st.sampled_from(sorted(DISTRIBUTIONS)),
    st.integers(1, 5000),
)


@pytest.mark.parametrize("method", sorted(METHODS))
@given(values=continuous | tied, bits=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
@example(values=np.array([-0.0, 0.0]), bits=3, seed=3)  # signed zeros, swapped
# Tied bins whose init means round out of order, and the init is the best L1.
@example(values=np.round(_values(0, "normal", 2240), 2), bits=7, seed=1)
@settings(max_examples=60, deadline=None)
def test_shuffled_input_permutes_only_the_assignment(method, values, bits, seed):
    cluster, _ = METHODS[method]
    order = np.random.default_rng(seed).permutation(values.size)
    plain, shuffled = cluster(values, bits), cluster(values[order], bits)
    assert shuffled.centroids.tobytes() == plain.centroids.tobytes()
    assert shuffled.trace.l1_norms == plain.trace.l1_norms
    assert shuffled.trace.l2_norms == plain.trace.l2_norms
    assert shuffled.iterations == plain.iterations
    assert shuffled.converged == plain.converged
    np.testing.assert_array_equal(shuffled.assignment, plain.assignment[order])


# ------------------------------------------------- the prefix sums, bit for bit


def interleaved_prefix(values):
    """The prefix build ``_SortedValues`` replaced: column 0 of one
    ``(n + 1, 2)`` array is the running sum, column 1 the running sum of its
    TwoSum errors, built from whole-array temporaries."""
    ordered = np.sort(np.asarray(values, dtype=np.float64).ravel())
    ordered += 0.0
    running = np.cumsum(ordered)
    step = running[1:] - running[:-1]
    error = running[:-1] - (running[1:] - step)
    np.subtract(ordered[1:], step, out=step)
    error += step
    prefix = np.zeros((ordered.size + 1, 2), dtype=np.float64)
    prefix[1:, 0] = running
    np.cumsum(error, out=prefix[2:, 1])
    return ordered, prefix, float(np.square(ordered).sum())


def assert_prefix_matches_interleaved(values, bits):
    ordered, prefix, sum_sq = interleaved_prefix(values)
    got = _SortedValues(np.asarray(values, dtype=np.float64).ravel())
    assert got.ordered.tobytes() == ordered.tobytes()
    assert got.total.tobytes() == np.ascontiguousarray(prefix[:, 0]).tobytes()
    assert got.carry.tobytes() == np.ascontiguousarray(prefix[:, 1]).tobytes()
    assert got.sum_sq == sum_sq
    # A run's sum is the two column differences, added.
    centroids = equal_population_centroids(values, 1 << bits)
    runs = got.runs(centroids)
    at_bounds = prefix[runs.bounds]
    pairs = at_bounds[1:] - at_bounds[:-1]
    assert runs.sums.tobytes() == (pairs[:, 0] + pairs[:, 1]).tobytes()


@pytest.mark.parametrize(
    "size",
    [1, 2, 3, CACHE_BLOCK - 1, CACHE_BLOCK, CACHE_BLOCK + 1, CACHE_BLOCK + 2, 2 * CACHE_BLOCK + 3],
)
def test_prefix_equals_interleaved_build_at_block_edges(size):
    values = _values(size, "student-t3", size)
    assert_prefix_matches_interleaved(values, 3)


@given(values=continuous | tied, bits=st.integers(1, 8), scale=st.integers(-6, 6))
@example(values=np.array([-0.0, 0.0, -0.0]), bits=1, scale=0)
@settings(max_examples=60, deadline=None)
def test_prefix_equals_interleaved_build(values, bits, scale):
    assert_prefix_matches_interleaved(values * 10.0**scale, bits)
