"""Clustering quality metrics of one ``contingency_table``: accuracy and NMI.

Accuracy matches predicted clusters to truth classes one-to-one (a
Kuhn-Munkres matching of largest sum, O(k^2 * classes) steps of plain
Python: about 0.1 ms at k=16) and reports the matched fraction.  NMI is
mutual information normalized by the geometric mean of the two partition
entropies, with natural logarithms.
"""

from __future__ import annotations

import numpy as np


def _as_labels(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"labels must be one-dimensional, got shape {arr.shape}")
    if arr.size and arr.min() < 0:
        raise ValueError("labels must be non-negative integers")
    return arr


def dense_labels(values) -> np.ndarray:
    """Labels renumbered 0..c-1 in sorted order, so a contingency_table is
    sized by the c distinct labels, not the largest; neither metric changes."""
    return np.unique(_as_labels(values), return_inverse=True)[1]


def contingency_table(predicted, truth) -> np.ndarray:
    p = _as_labels(predicted)
    t = _as_labels(truth)
    if p.size != t.size:
        raise ValueError(f"label lengths differ: {p.size} vs {t.size}")
    rows, cols = int(p.max()) + 1, int(t.max()) + 1
    return np.bincount(p * cols + t, minlength=rows * cols).reshape(rows, cols)


def matched_sum(table: np.ndarray) -> int:
    """Largest sum of table entries with at most one per row and column, by
    shortest augmenting paths with row and column potentials (Kuhn 1955,
    Munkres 1957) on the negated counts, in exact integer arithmetic."""
    rows = table.tolist()
    lines = rows if len(rows) <= len(rows[0]) else zip(*rows)  # rows <= columns
    cost = [[]] + [[0] + [-c for c in line] for line in lines]  # 1-based
    n, m = len(cost) - 1, len(cost[1]) - 1
    u, v = [0] * (n + 1), [0] * (m + 1)
    owner = [0] * (m + 1)  # owner[j]: row matched to column j, 0 if none
    for i in range(1, n + 1):
        # grow a shortest-path tree from row i until it reaches a free column
        owner[0], j0 = i, 0
        slack, way = [float("inf")] * (m + 1), [0] * (m + 1)
        free, tree = list(range(1, m + 1)), [0]
        while owner[j0]:
            row, ui = cost[owner[j0]], u[owner[j0]]
            delta, j1 = float("inf"), 0
            for j in free:
                reduced = row[j] - ui - v[j]
                if reduced < slack[j]:
                    slack[j], way[j] = reduced, j0
                if slack[j] < delta:
                    delta, j1 = slack[j], j
            for j in tree:
                u[owner[j]] += delta
                v[j] -= delta
            for j in free:
                slack[j] -= delta
            free.remove(j1)
            tree.append(j1)
            j0 = j1
        while j0:
            owner[j0] = owner[way[j0]]
            j0 = way[j0]
    return -sum(cost[owner[j]][j] for j in range(1, m + 1) if owner[j])


def accuracy(table: np.ndarray) -> float:
    """Best one-to-one cluster-to-class matching fraction, in [0, 1]."""
    return float(matched_sum(table)) / float(table.sum())


def _entropy(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def nmi(table: np.ndarray) -> float:
    """Normalized mutual information in [0, 1].

    Two single-cluster partitions are identical and score 1.0; otherwise a
    zero-entropy partition on either side scores 0.0.
    """
    n = int(table.sum())
    pred_counts, truth_counts = table.sum(axis=1), table.sum(axis=0)
    h_pred = _entropy(pred_counts, n)
    h_truth = _entropy(truth_counts, n)
    if h_pred == 0.0 and h_truth == 0.0:
        return 1.0
    if h_pred == 0.0 or h_truth == 0.0:
        return 0.0
    joint = table / n
    mask = joint > 0
    outer = np.outer(pred_counts / n, truth_counts / n)
    mi = float((joint[mask] * np.log(joint[mask] / outer[mask])).sum())
    value = mi / np.sqrt(h_pred * h_truth)
    return float(min(max(value, 0.0), 1.0))
