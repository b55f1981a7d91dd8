"""Invariants of the GOBO centroid iteration (the paper's stopping rule).

GOBO stops at the first iteration where the total L1 norm fails to improve
(Section IV) — so the recorded trajectory must decrease monotonically up to
the stop, the returned state must be the trajectory minimum, and the final
assignment must be nearest-centroid consistent.  The same facts are checked
through the new observability convergence trace, which must mirror the
in-memory :class:`ConvergenceTrace` exactly.  Tiny and heavily tied inputs,
which the full-pass oracle in ``test_clustering_oracle.py`` leaves out, keep
these invariants too.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.binning import assign_to_centroids
from repro.core.clustering import gobo_cluster, kmeans_cluster
from repro.utils.rng import derive_rng

SEEDS = (0, 1, 2)
BITS = (2, 3, 4)


def _values(seed: int, size: int = 4000) -> np.ndarray:
    rng = derive_rng(seed, "clustering-invariants")
    values = rng.normal(0.0, 0.04, size=size)
    values[rng.integers(0, size, size=4)] *= 8.0  # a few outlier-ish tails
    return values


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("bits", BITS)
class TestGoboL1Monotonicity:
    def test_l1_non_increasing_until_stop(self, seed, bits):
        """Every step before the stop improves L1; only the stopping step
        (kept in the trace on purpose) may worsen it."""
        result = gobo_cluster(_values(seed), bits)
        l1 = result.trace.l1_norms
        assert len(l1) >= 1
        for i in range(len(l1) - 2):
            assert l1[i + 1] <= l1[i], f"L1 rose mid-run at iteration {i + 1}: {l1}"

    def test_returned_state_is_trajectory_minimum(self, seed, bits):
        result = gobo_cluster(_values(seed), bits)
        assert result.final_l1 == min(result.trace.l1_norms)
        assert result.l1_norm() <= result.trace.l1_norms[-1]

    def test_final_assignment_is_nearest_centroid(self, seed, bits):
        values = _values(seed)
        result = gobo_cluster(values, bits)
        nearest = assign_to_centroids(values, result.centroids)
        np.testing.assert_array_equal(result.assignment, nearest)

    def test_recomputed_l1_matches_reported(self, seed, bits):
        values = _values(seed)
        result = gobo_cluster(values, bits)
        residual = np.abs(values - result.centroids[result.assignment]).sum()
        assert residual == pytest.approx(result.final_l1, rel=1e-12)


#: Tiny and heavily tied inputs, where L1 can plateau at or near zero.
DEGENERATE = {
    "fewer-distinct-than-centroids": np.repeat([-0.5, 0.0, 0.25], 300),
    "two-decimals": np.round(_values(5), 2),
    "constant": np.full(50, 0.125),
    "single": np.array([0.3]),
    "pair": np.array([-1.0, 1.0]),
    "integers": np.random.default_rng(9).integers(-3, 4, 1000).astype(np.float64),
    "one-outlier": np.append(np.zeros(999), 1e3),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
@pytest.mark.parametrize("bits", (1, *BITS, 8))
class TestDegenerateInputs:
    def test_gobo_stops_at_the_l1_minimum(self, name, bits):
        values = DEGENERATE[name]
        result = gobo_cluster(values, bits)
        l1 = result.trace.l1_norms
        assert all(later < earlier for earlier, later in zip(l1[:-2], l1[1:-1])), l1
        assert result.converged
        assert result.final_l1 == min(l1)
        np.testing.assert_array_equal(
            result.assignment, assign_to_centroids(values, result.centroids)
        )

    def test_kmeans_reaches_a_nearest_centroid_fixpoint(self, name, bits):
        values = DEGENERATE[name]
        result = kmeans_cluster(values, bits)
        assert result.converged
        assert np.all(np.diff(result.centroids) >= 0)
        assignment = assign_to_centroids(values, result.centroids)
        np.testing.assert_array_equal(result.assignment, assignment)
        # At the fixpoint every populated centroid is its cluster's mean.
        for code in np.unique(assignment):
            members = values[assignment == code]
            assert result.centroids[code] == pytest.approx(
                members.mean(), rel=1e-12, abs=1e-15
            )


class TestConvergenceObsTrace:
    """The clustering.l1 obs event mirrors the in-memory trace exactly."""

    @pytest.mark.parametrize("cluster,method", [(gobo_cluster, "gobo"), (kmeans_cluster, "kmeans")])
    def test_trace_event_matches_trace(self, cluster, method):
        values = _values(7)
        with obs.scope() as scoped:
            result = cluster(values, 3)
        traces = [e for e in scoped.events if e["name"] == "clustering.l1"]
        assert len(traces) == 1
        event = traces[0]
        assert event["event"] == "trace"
        assert event["values"] == result.trace.l1_norms
        assert event["attrs"]["method"] == method
        assert event["attrs"]["bits"] == 3
        assert event["attrs"]["iterations"] == result.iterations
        assert event["attrs"]["converged"] == result.converged
        assert event["attrs"]["final_l1"] == result.final_l1
        assert not any(obs.validate_event(event) for event in scoped.events)

    def test_gobo_trace_minimum_is_final_l1(self):
        with obs.scope() as scoped:
            result = gobo_cluster(_values(11), 3)
        (event,) = [e for e in scoped.events if e["name"] == "clustering.l1"]
        assert min(event["values"]) == result.final_l1
