"""Tests for the task metrics."""

import numpy as np
import pytest

from repro.data.metrics import accuracy, metric_for_task, span_f1, spearman
from repro.errors import ShapeError


class TestAccuracy:
    def test_perfect(self):
        assert accuracy(np.array([1, 2, 0]), np.array([1, 2, 0])) == 1.0

    def test_partial(self):
        assert accuracy(np.array([1, 2, 0, 1]), np.array([1, 2, 2, 2])) == 0.5

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            accuracy(np.array([1]), np.array([1, 2]))

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            accuracy(np.array([]), np.array([]))


class TestSpearman:
    def test_perfect_monotone(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert spearman(x * 10 + 5, x) == pytest.approx(1.0)

    def test_reversed(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert spearman(-x, x) == pytest.approx(-1.0)

    def test_nonlinear_monotone_still_perfect(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert spearman(np.exp(x), x) == pytest.approx(1.0)

    def test_ties_take_average_ranks(self):
        """Pearson correlation of the ranks [1, 2.5, 2.5, 4, 5] and [2, 1, 4, 3, 5]."""
        rho = spearman(np.array([1.0, 2.0, 2.0, 3.0, 5.0]), np.array([2.0, 1.0, 4.0, 3.0, 5.0]))
        assert rho == pytest.approx(0.6668859288553503, rel=1e-12)

    def test_constant_predictions_score_zero(self):
        assert spearman(np.ones(5), np.arange(5.0)) == 0.0

    def test_too_few_samples(self):
        with pytest.raises(ShapeError):
            spearman(np.array([1.0]), np.array([1.0]))


class TestSpanF1:
    def test_exact_match(self):
        spans = np.array([[2, 4], [0, 0]])
        assert span_f1(spans, spans) == 1.0

    def test_no_overlap(self):
        assert span_f1(np.array([[0, 1]]), np.array([[5, 6]])) == 0.0

    def test_partial_overlap(self):
        # predicted {2,3}, gold {3,4}: precision 0.5, recall 0.5, F1 0.5.
        assert span_f1(np.array([[2, 3]]), np.array([[3, 4]])) == pytest.approx(0.5)

    def test_prediction_superset(self):
        # predicted {1..4}, gold {2,3}: precision 0.5, recall 1 -> F1 2/3.
        assert span_f1(np.array([[1, 4]]), np.array([[2, 3]])) == pytest.approx(2 / 3)

    def test_averages_over_examples(self):
        predicted = np.array([[0, 0], [9, 9]])
        gold = np.array([[0, 0], [0, 0]])
        assert span_f1(predicted, gold) == pytest.approx(0.5)

    def test_shape_checked(self):
        with pytest.raises(ShapeError):
            span_f1(np.array([1, 2]), np.array([1, 2]))


class TestMetricForTask:
    def test_mapping(self):
        assert metric_for_task("classification") is accuracy
        assert metric_for_task("regression") is spearman
        assert metric_for_task("span") is span_f1

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            metric_for_task("generation")
