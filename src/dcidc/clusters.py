"""Closed-form cluster updates used in the joint training loop.

The cluster state is a center matrix (one column per cluster, living in
code space) and the indicator H.  H is a one-hot n x k matrix in the math,
but is stored as its rows' column indices: an int64 vector of n labels in
[0, k), so H S^T is a gather of center columns; ``residuals`` gives the
codes minus their centers, Z - H S^T, to the loss and the backward pass
alike.  Given the labels, each center is the mean of its member codes.  Given the centers, each sample's
label is recomputed by solving the normal equations of a least-squares fit
of the code against the center columns and taking the largest coefficient
(ties go to the lowest index).  Note this least-squares rule coincides with
nearest-center assignment only when the centers are orthonormal.

The centers, the assignment and the intra-class error are float64, on
``train``'s float32 codes as they are, and each goes one row block at a
time (``linalg.row_blocks``), so none forms a float64 copy of all the
codes.  The center update widens a cluster's members block by block and
carries the float64 sum of the blocks before it as the first row of the
next block's sum, so the rows are added in one pass's order.  The one
exception is codes one column wide, which are summed pairwise and so
widened whole (n float64 values).  A re-seed takes its distances by the
same blocks.  The assignment factors only the k x k matrix S^T S, solves
once for the projection P = (S^T S)^-1 S^T and labels the codes by the
product Z P^T, block by block: each block of codes is widened to
float64, since a float32-by-float64 matrix product skips BLAS, and only
its labels are kept.  The intra-class error adds each block's float64
partial sum, as ``autoencoder.forward`` does for the reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    BLOCK_ROWS,
    ShapeMismatchError,
    SingularMatrixError,
    column_sums,
    frobenius_sq,
    row_blocks,
    solve_spd,
)
from .seeding import substream


class DegenerateCentersError(RuntimeError):
    """Centers too collapsed, or codes not finite, for the indicator solve."""


@dataclass
class ClusterState:
    centers: np.ndarray     # code_dim x k, column i is the center of cluster i
    indicator: np.ndarray   # the indicator H stored as each row's column index


def init_indicator(n: int, k: int, seed: int) -> np.ndarray:
    """Random labels in [0, k) for 1 <= k <= n (``training.check_fit``); the
    first k samples cover clusters 0..k-1 so no cluster starts empty."""
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
    previous center; prev_centers may be None only when no cluster is empty,
    as at train's epoch 0, where init_indicator puts row i in cluster i for
    every i < k.  Returns the centers and the list of re-seeded clusters.
    Codes are widened to float64 before any sum, one row block of a
    cluster's members at a time, with the float64 sum so far carried into
    the next block's: float32 codes give the same centers, bit for bit, as
    the same codes widened whole by the caller.  The re-seed distances are
    taken block by block too, so no float64 array of all the rows is formed.
    """
    if codes.shape[0] != labels.shape[0]:
        raise ShapeMismatchError(
            f"update_centers: {codes.shape[0]} codes vs {labels.shape[0]} labels"
        )
    centers = np.zeros((codes.shape[1], k))
    reseeded = []
    for i in range(k):
        members = np.flatnonzero(labels == i)
        count = members.size
        if count == 0:
            centers[:, i] = codes[_farthest_row(codes, prev_centers[:, i])]
            reseeded.append(i)
        else:
            centers[:, i] = _member_sums(codes, members) / count
    return centers, reseeded


def _member_sums(codes: np.ndarray, members: np.ndarray) -> np.ndarray:
    """column_sums of the member rows widened to float64, bit for bit,
    holding one row block (``linalg.row_blocks``) of them at a time.

    Each block is widened into a buffer whose first row carries the float64
    sum of the blocks before it (zeros for the first), so the rows are
    added in the order of one pass over all members.  A single column is
    widened whole: it is one contiguous run, which column_sums adds
    pairwise."""
    if codes.shape[1] == 1:
        return column_sums(np.take(codes, members, axis=0).astype(np.float64, copy=False))
    block = np.zeros((min(members.size, BLOCK_ROWS) + 1, codes.shape[1]))
    for rows in row_blocks(members.size):
        size = rows.stop - rows.start
        block[1:size + 1] = np.take(codes, members[rows], axis=0)
        block[0] = column_sums(block[:size + 1])
    return block[0]


def _farthest_row(codes: np.ndarray, reference: np.ndarray) -> int:
    """The index of the code row with the largest float64 squared distance
    to reference, taken one row block at a time; the first maximum wins,
    as in np.argmax over all rows."""
    rows_at, peaks = [], []
    for rows in row_blocks(codes.shape[0]):
        dist_sq = ((codes[rows] - reference) ** 2).sum(axis=1)
        at = int(np.argmax(dist_sq))
        rows_at.append(rows.start + at)
        peaks.append(dist_sq[at])
    return rows_at[int(np.argmax(peaks))]


def update_indicator(codes: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Labels from the least-squares fit of each code against the centers.

    Solves the normal equations once for the projection (with ridge fallback
    for rank-deficient center sets, e.g. code_dim < k), applies it to every
    code and labels each with its largest coefficient (``binarize``).  The
    codes go through in row blocks, each widened to float64 and labelled
    before the next; a block's labels are those of the whole product.
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
    labels = np.empty(codes.shape[0], dtype=np.int64)
    for rows in row_blocks(codes.shape[0]):
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = codes[rows].astype(np.float64, copy=False) @ projection.T
        if not np.isfinite(coeffs).all():
            raise DegenerateCentersError(
                f"indicator solve failed: non-finite coefficients for codes of "
                f"shape {codes.shape}"
            )
        labels[rows] = binarize(coeffs)
    return labels


def binarize(rows: np.ndarray) -> np.ndarray:
    """The column of each row's maximum entry, as labels; first max wins ties."""
    return np.argmax(rows, axis=1)


def residuals(
    codes: np.ndarray, labels: np.ndarray, centers: np.ndarray, dtype
) -> np.ndarray:
    """Z - H S^T in one fresh array of dtype: each code minus its assigned
    center.  The centers are cast to dtype before the gather, and codes of
    a narrower type widen per element in the subtraction."""
    if labels.shape != (codes.shape[0],) or codes.shape[1] != centers.shape[0]:
        raise ShapeMismatchError(f"residuals: codes {codes.shape}, labels "
                                 f"{labels.shape}, centers {centers.shape}")
    diff = np.take(np.ascontiguousarray(centers.T, dtype=dtype), labels, axis=0)
    return np.subtract(codes, diff, out=diff)


def intra_class_error(
    codes: np.ndarray, labels: np.ndarray, centers: np.ndarray
) -> float:
    """Squared Frobenius distance, in float64, of the codes to their centers:
    one partial sum per row block (``linalg.row_blocks``), added in row
    order, so the residuals of one block are held at a time."""
    if labels.shape != (codes.shape[0],):
        raise ShapeMismatchError(f"intra_class_error: codes {codes.shape}, "
                                 f"labels {labels.shape}")
    error = 0.0
    for rows in row_blocks(codes.shape[0]):
        error += frobenius_sq(residuals(codes[rows], labels[rows], centers, np.float64))
    return error

