"""Evaluation metrics: accuracy (MNLI), Spearman rho (STS-B), span F1 (SQuAD)."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of exact matches — GLUE's MNLI matched-accuracy metric."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ShapeError(f"shape mismatch: {predictions.shape} vs {labels.shape}")
    if predictions.size == 0:
        raise ShapeError("cannot compute accuracy of zero predictions")
    return float((predictions == labels).mean())


def spearman(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Spearman rank correlation — GLUE's STS-B metric.

    Returns 0.0 when either input is constant (correlation undefined),
    which is the conservative convention for a degenerate model.
    """
    from scipy import stats as sp_stats  # here, not at the top: only STS-B needs it

    predictions = np.asarray(predictions, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if predictions.shape != labels.shape:
        raise ShapeError(f"shape mismatch: {predictions.shape} vs {labels.shape}")
    if predictions.size < 2:
        raise ShapeError("spearman needs at least 2 samples")
    if np.all(predictions == predictions[0]) or np.all(labels == labels[0]):
        return 0.0
    rho, _ = sp_stats.spearmanr(predictions, labels)
    return float(rho)


def span_f1(predicted_spans: np.ndarray, gold_spans: np.ndarray) -> float:
    """Mean token-overlap F1 between predicted and gold spans (SQuAD F1).

    Spans are inclusive ``(start, end)`` index pairs.
    """
    predicted_spans = np.asarray(predicted_spans)
    gold_spans = np.asarray(gold_spans)
    if predicted_spans.shape != gold_spans.shape or predicted_spans.ndim != 2:
        raise ShapeError(
            f"spans must both be (n, 2): {predicted_spans.shape} vs {gold_spans.shape}"
        )
    scores = []
    for (p_start, p_end), (g_start, g_end) in zip(predicted_spans, gold_spans):
        predicted = set(range(int(p_start), int(p_end) + 1))
        gold = set(range(int(g_start), int(g_end) + 1))
        overlap = len(predicted & gold)
        if overlap == 0:
            scores.append(0.0)
            continue
        precision = overlap / len(predicted)
        recall = overlap / len(gold)
        scores.append(2 * precision * recall / (precision + recall))
    return float(np.mean(scores))


def metric_for_task(task_type: str):
    """The paper's metric for each task type."""
    table = {
        "classification": accuracy,
        "regression": spearman,
        "span": span_f1,
    }
    try:
        return table[task_type]
    except KeyError:
        raise ValueError(f"unknown task_type {task_type!r}") from None
