"""Evaluation metrics: AUC, error rate, MSE, RMSE."""

from __future__ import annotations

import numpy as np

from .errors import UndefinedMetricError


def auc(scores, labels) -> float:
    """Area under the ROC curve via the Mann-Whitney rank-sum statistic.

    Equals the fraction of (positive, negative) pairs ranked correctly, with
    ties counted as 1/2; O(n log n) through average ranks.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs both classes present")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    csum = np.cumsum(counts)
    avg_rank = csum - (counts - 1) / 2.0
    ranks = avg_rank[inverse]
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def error_rate(scores, labels) -> float:
    """Fraction of thresholded predictions disagreeing with the labels; the
    cut-off is fixed at 0.5 (score >= 0.5 -> 1)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    preds = (scores >= 0.5).astype(labels.dtype)
    return float(np.mean(preds != labels))


def mse(pred, y) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if pred.shape != y.shape or pred.ndim != 1 or pred.size < 1:
        raise ValueError("pred and y must be equal-length nonempty vectors")
    with np.errstate(over="ignore"):  # finite inputs may give inf, which callers judge
        diff = pred - y
        return float(np.mean(diff * diff))


def rmse(pred, y) -> float:
    return float(np.sqrt(mse(pred, y)))
