"""Closed-form cluster updates used in the joint training loop.

The cluster state is a center matrix (one column per cluster, living in
code space) and a one-hot indicator matrix (one row per sample).  Given the
indicator, each center is the mean of its member codes.  Given the centers,
each sample's indicator row is recomputed by solving the normal equations
of a least-squares fit of the code against the center columns and setting 1
at the largest coefficient (ties go to the lowest index).  Note this
least-squares rule coincides with nearest-center assignment only when the
centers are orthonormal; ``assignment_disagreement`` reports how often the
two rules differ.

Codes may arrive as float32; the centers, the assignment solve and the
intra-class error are computed in float64 all the same.  Codes are widened
explicitly, because a float32-by-float64 matrix product skips BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ShapeMismatchError, SingularMatrixError, frobenius_sq, solve_spd
from .seeding import substream


class DegenerateCentersError(ValueError):
    """Center matrix too collapsed for the indicator solve."""


@dataclass
class ClusterState:
    centers: np.ndarray     # code_dim x k, column i is the center of cluster i
    indicator: np.ndarray   # n x k, one-hot rows
    k: int

    def labels(self) -> np.ndarray:
        return labels_from_indicator(self.indicator)


def labels_from_indicator(indicator: np.ndarray) -> np.ndarray:
    return np.argmax(indicator, axis=1)


def validate_indicator(indicator: np.ndarray) -> None:
    if indicator.ndim != 2:
        raise ShapeMismatchError("indicator must be a 2-D matrix")
    ok = np.all((indicator == 0.0) | (indicator == 1.0)) and np.all(
        indicator.sum(axis=1) == 1.0
    )
    if not ok:
        raise ValueError("indicator rows must be one-hot")


def init_indicator(n: int, k: int, seed: int) -> np.ndarray:
    """Random one-hot rows; the first k rows cover clusters 0..k-1 so no
    cluster starts empty."""
    if n < k:
        raise ValueError(f"cannot assign {n} samples to {k} clusters")
    if k < 1:
        raise ValueError(f"cluster count must be >= 1, got {k}")
    rng = substream(seed, "h-init")
    labels = np.empty(n, dtype=np.int64)
    labels[:k] = np.arange(k)
    labels[k:] = rng.integers(0, k, size=n - k)
    indicator = np.zeros((n, k))
    indicator[np.arange(n), labels] = 1.0
    return indicator


def update_centers(
    codes: np.ndarray,
    indicator: np.ndarray,
    prev_centers: np.ndarray | None = None,
) -> tuple[np.ndarray, list[int]]:
    """Center columns as per-cluster means of the assigned code rows.

    A cluster with no members is re-seeded to the code row farthest from its
    previous center (or from the global code mean when no previous centers
    exist).  Returns the centers and the list of re-seeded cluster indices.
    Codes are widened to float64 before any sum, so float32 codes give the
    same centers, bit for bit, as the same codes widened by the caller.
    """
    if codes.shape[0] != indicator.shape[0]:
        raise ShapeMismatchError(
            f"update_centers: {codes.shape[0]} codes vs "
            f"{indicator.shape[0]} indicator rows"
        )
    k = indicator.shape[1]
    centers = np.zeros((codes.shape[1], k))
    reseeded = []
    for i in range(k):
        members = indicator[:, i] == 1.0
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
    """One-hot rows from the least-squares fit of each code against the centers.

    Solves the shared normal equations (with ridge fallback for
    rank-deficient center sets, e.g. code_dim < k) for all samples at once,
    then binarizes each coefficient vector at its maximum.
    """
    if codes.shape[1] != centers.shape[0]:
        raise ShapeMismatchError(
            f"update_indicator: codes {codes.shape} vs centers {centers.shape}"
        )
    with np.errstate(over="ignore"):  # inf gram is caught by the solve below
        gram = centers.T @ centers
        rhs = centers.T @ codes.astype(np.float64, copy=False).T
    try:
        coeffs = solve_spd(gram, rhs)  # k x n
    except SingularMatrixError as exc:
        raise DegenerateCentersError(
            f"indicator solve failed: centers of shape {centers.shape} are "
            f"numerically collapsed ({exc})"
        ) from exc
    return binarize(coeffs.T)


def binarize(rows: np.ndarray) -> np.ndarray:
    """Set 1 at each row's maximum entry, 0 elsewhere; first max wins ties."""
    out = np.zeros_like(rows)
    out[np.arange(rows.shape[0]), np.argmax(rows, axis=1)] = 1.0
    return out


def intra_class_error(
    codes: np.ndarray, indicator: np.ndarray, centers: np.ndarray
) -> float:
    """Squared Frobenius distance between the codes and their assigned centers."""
    if codes.shape[0] != indicator.shape[0] or indicator.shape[1] != centers.shape[1]:
        raise ShapeMismatchError(
            f"intra_class_error: codes {codes.shape}, indicator "
            f"{indicator.shape}, centers {centers.shape}"
        )
    if codes.shape[1] != centers.shape[0]:
        raise ShapeMismatchError(
            f"intra_class_error: code width {codes.shape[1]} vs center "
            f"dimension {centers.shape[0]}"
        )
    return frobenius_sq(codes.astype(np.float64, copy=False) - indicator @ centers.T)


def assignment_disagreement(codes: np.ndarray, centers: np.ndarray) -> int:
    """Count samples where the least-squares rule and nearest-center disagree."""
    by_ls = labels_from_indicator(update_indicator(codes, centers))
    dist_sq = ((codes[:, :, None] - centers[None, :, :]) ** 2).sum(axis=1)
    by_nearest = np.argmin(dist_sq, axis=1)
    return int(np.sum(by_ls != by_nearest))
