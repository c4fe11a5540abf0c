"""Closed-form cluster updates used in the joint training loop.

The cluster state is a center matrix (one column per cluster, living in
code space) and the indicator H.  H is a one-hot n x k matrix in the math,
but is stored as its rows' column indices: an int64 vector of n labels in
[0, k), so H S^T is a gather of center columns.  Given the labels, each
center is the mean of its member codes.  Given the centers, each sample's
label is recomputed by solving the normal equations of a least-squares fit
of the code against the center columns and taking the largest coefficient
(ties go to the lowest index).  Note this least-squares rule coincides with
nearest-center assignment only when the centers are orthonormal;
``assignment_disagreement`` reports how often the two rules differ.

The centers, the assignment and the intra-class error are float64.  The
assignment factors only the k x k matrix S^T S, solves once for the
projection P = (S^T S)^-1 S^T and labels all codes by one n x k product
Z P^T.  ``train`` widens its float32 codes to float64 once per epoch for
both updates; float32 input is widened here too, since a float32-by-float64
matrix product skips BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ShapeMismatchError, SingularMatrixError, frobenius_sq, solve_spd
from .seeding import substream


class DegenerateCentersError(ValueError):
    """Centers too collapsed, or codes not finite, for the indicator solve."""


@dataclass
class ClusterState:
    centers: np.ndarray     # code_dim x k, column i is the center of cluster i
    indicator: np.ndarray   # the indicator H stored as each row's column index
    k: int


def init_indicator(n: int, k: int, seed: int) -> np.ndarray:
    """Random labels in [0, k); the first k samples cover clusters 0..k-1 so
    no cluster starts empty."""
    if n < k:
        raise ValueError(f"cannot assign {n} samples to {k} clusters")
    if k < 1:
        raise ValueError(f"cluster count must be >= 1, got {k}")
    rng = substream(seed, "h-init")
    labels = np.empty(n, dtype=np.int64)
    labels[:k] = np.arange(k)
    labels[k:] = rng.integers(0, k, size=n - k)
    return labels


def update_centers(
    codes: np.ndarray,
    labels: np.ndarray,
    k: int,
    prev_centers: np.ndarray | None = None,
) -> tuple[np.ndarray, list[int]]:
    """The k center columns as per-cluster means of the labelled code rows.

    A cluster with no members is re-seeded to the code row farthest from its
    previous center (or from the global code mean when no previous centers
    exist).  Returns the centers and the list of re-seeded cluster indices.
    Codes are widened to float64 before any sum, so float32 codes give the
    same centers, bit for bit, as the same codes widened by the caller.
    """
    if codes.shape[0] != labels.shape[0]:
        raise ShapeMismatchError(
            f"update_centers: {codes.shape[0]} codes vs {labels.shape[0]} labels"
        )
    centers = np.zeros((codes.shape[1], k))
    reseeded = []
    for i in range(k):
        members = labels == i
        count = int(members.sum())
        if count == 0:
            if prev_centers is not None:
                reference = prev_centers[:, i]
            else:
                reference = codes.astype(np.float64, copy=False).mean(axis=0)
            dist_sq = ((codes - reference) ** 2).sum(axis=1)
            centers[:, i] = codes[int(np.argmax(dist_sq))]
            reseeded.append(i)
        else:
            centers[:, i] = codes[members].astype(np.float64, copy=False).sum(axis=0) / count
    return centers, reseeded


def update_indicator(codes: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Labels from the least-squares fit of each code against the centers.

    Solves the normal equations once for the projection (with ridge fallback
    for rank-deficient center sets, e.g. code_dim < k), applies it to every
    code and labels each with its largest coefficient (``binarize``).
    """
    if codes.shape[1] != centers.shape[0]:
        raise ShapeMismatchError(
            f"update_indicator: codes {codes.shape} vs centers {centers.shape}"
        )
    with np.errstate(over="ignore"):  # inf gram is caught by the solve below
        gram = centers.T @ centers
    try:
        projection = solve_spd(gram, centers.T)  # k x code_dim
    except SingularMatrixError as exc:
        raise DegenerateCentersError(
            f"indicator solve failed: centers of shape {centers.shape} are "
            f"numerically collapsed ({exc})"
        ) from exc
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = codes.astype(np.float64, copy=False) @ projection.T  # n x k
    if not np.isfinite(coeffs).all():
        raise DegenerateCentersError(
            f"indicator solve failed: non-finite coefficients for codes of "
            f"shape {codes.shape}"
        )
    return binarize(coeffs)


def binarize(rows: np.ndarray) -> np.ndarray:
    """The column of each row's maximum entry, as labels; first max wins ties."""
    return np.argmax(rows, axis=1)


def intra_class_error(
    codes: np.ndarray, labels: np.ndarray, centers: np.ndarray
) -> float:
    """Squared Frobenius distance between the codes and their assigned centers."""
    if labels.shape != (codes.shape[0],):
        raise ShapeMismatchError(
            f"intra_class_error: codes {codes.shape}, labels {labels.shape}"
        )
    if codes.shape[1] != centers.shape[0]:
        raise ShapeMismatchError(
            f"intra_class_error: code width {codes.shape[1]} vs center "
            f"dimension {centers.shape[0]}"
        )
    diff = np.ascontiguousarray(centers.T, dtype=np.float64)[labels]
    np.subtract(codes, diff, out=diff)  # float32 codes widen per element
    return frobenius_sq(diff)


def assignment_disagreement(codes: np.ndarray, centers: np.ndarray) -> int:
    """Count samples where the least-squares rule and nearest-center disagree."""
    by_ls = update_indicator(codes, centers)
    # ||z - s||^2 less the ||z||^2 that all centers share: n x k, not n x d x k
    wide = codes.astype(np.float64, copy=False)
    dist_sq = (centers * centers).sum(axis=0) - 2.0 * (wide @ centers)
    by_nearest = np.argmin(dist_sq, axis=1)
    return int(np.sum(by_ls != by_nearest))
