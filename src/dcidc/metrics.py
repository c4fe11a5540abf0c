"""Clustering quality metrics: optimal-assignment accuracy and NMI.

Accuracy matches predicted clusters to truth classes one-to-one (Hungarian
algorithm on the negated contingency table) and reports the matched
fraction.  NMI is mutual information normalized by the geometric mean of
the two partition entropies, with natural logarithms.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment


def _as_labels(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"labels must be one-dimensional, got shape {arr.shape}")
    if arr.size and arr.min() < 0:
        raise ValueError("labels must be non-negative integers")
    return arr


def contingency_table(predicted, truth) -> np.ndarray:
    p = _as_labels(predicted)
    t = _as_labels(truth)
    if p.size != t.size:
        raise ValueError(f"label lengths differ: {p.size} vs {t.size}")
    rows, cols = int(p.max()) + 1, int(t.max()) + 1
    return np.bincount(p * cols + t, minlength=rows * cols).reshape(rows, cols)


def accuracy(predicted, truth) -> float:
    """Best one-to-one cluster-to-class matching fraction, in [0, 1]."""
    table = contingency_table(predicted, truth)
    rows, cols = linear_sum_assignment(-table)
    return float(table[rows, cols].sum()) / float(np.asarray(truth).size)


def _entropy(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def nmi(predicted, truth) -> float:
    """Normalized mutual information in [0, 1].

    Two single-cluster partitions are identical and score 1.0; otherwise a
    zero-entropy partition on either side scores 0.0.
    """
    table = contingency_table(predicted, truth)
    n = int(table.sum())
    h_pred = _entropy(table.sum(axis=1), n)
    h_truth = _entropy(table.sum(axis=0), n)
    if h_pred == 0.0 and h_truth == 0.0:
        return 1.0
    if h_pred == 0.0 or h_truth == 0.0:
        return 0.0
    p_pred = table.sum(axis=1) / n
    p_truth = table.sum(axis=0) / n
    joint = table / n
    mask = joint > 0
    outer = np.outer(p_pred, p_truth)
    mi = float((joint[mask] * np.log(joint[mask] / outer[mask])).sum())
    value = mi / np.sqrt(h_pred * h_truth)
    return float(min(max(value, 0.0), 1.0))
