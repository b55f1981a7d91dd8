"""AdmissionController: the counting gate's bound, hints and bookkeeping."""

from __future__ import annotations

import pytest

from repro.errors import QueueFullError, ServeError
from repro.serve import AdmissionController


class TestBound:
    def test_admits_up_to_bound(self):
        admission = AdmissionController(max_pending=3, request_timeout=1.0)
        for _ in range(3):
            admission.admit()
        assert admission.depth == 3
        with pytest.raises(QueueFullError, match="queue full"):
            admission.admit()
        assert admission.depth == 3  # the rejected request took no slot

    def test_release_reopens_the_gate(self):
        admission = AdmissionController(max_pending=1, request_timeout=1.0)
        admission.admit()
        with pytest.raises(QueueFullError):
            admission.admit()
        admission.release()
        admission.admit()  # does not raise
        assert admission.depth == 1

    def test_release_never_goes_negative(self):
        admission = AdmissionController(max_pending=2, request_timeout=1.0)
        with pytest.raises(ServeError, match="released"):
            admission.release()
        assert admission.depth == 0

    def test_double_release_is_seen(self):
        admission = AdmissionController(max_pending=1, request_timeout=1.0)
        admission.admit()
        admission.release()
        with pytest.raises(ServeError, match="twice"):
            admission.release()
        # The gate still holds its bound: one slot, not two.
        admission.admit()
        with pytest.raises(QueueFullError):
            admission.admit()


class TestRetryAfter:
    def test_rejection_carries_retry_after(self):
        admission = AdmissionController(
            max_pending=2, request_timeout=1.0, drain_rate=1.0
        )
        admission.admit()
        admission.admit()
        with pytest.raises(QueueFullError) as excinfo:
            admission.admit()
        assert excinfo.value.retry_after == 2.0  # depth 2 / 1 rps

    def test_retry_after_is_at_least_one_second(self):
        admission = AdmissionController(
            max_pending=1, request_timeout=1.0, drain_rate=1000.0
        )
        assert admission.retry_after(1) == 1.0


class TestValidation:
    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError, match="max_pending"):
            AdmissionController(max_pending=0, request_timeout=1.0)

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError, match="request_timeout"):
            AdmissionController(max_pending=1, request_timeout=0.0)
