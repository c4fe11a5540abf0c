"""Shared matrix kernels: a guarded SPD solve, the squared Frobenius norm,
column sums and row blocks.

solve_spd is the Cholesky solve behind the assignment update, on numpy's
LAPACK alone; frobenius_sq is the squared norm in the loss terms;
column_sums adds the rows of a batch, for the bias gradients and the
cluster member sums; row_blocks cuts a row range into slices of at most
BLOCK_ROWS rows, so a per-row pass needs temporaries of one block, not of
the whole batch.
Other matrix arithmetic is plain numpy on 2-D arrays, one row per sample.
All the kernels are deterministic: identical inputs give bit-identical
outputs.
"""

from __future__ import annotations

import numpy as np

RIDGE = 1e-8
# Most rows per block of every row-blocked pass (the epoch forward, which
# both batch modes run in blocks, and its j1 sum; the backward pass's
# signal products and derivatives; the center update's member sums and
# re-seed distances; the assignment): the smallest block
# whose forward over 20000 x 200 rows (200-128-64-32) was as fast as one
# call on the whole batch (1024 rows took 8% longer).
BLOCK_ROWS = 2048
_PIVOT_RATIO = 1e-7  # smallest/largest Cholesky pivot considered healthy


class ShapeMismatchError(ValueError):
    """Operands have incompatible shapes."""


class SingularMatrixError(ValueError):
    """System stayed numerically singular even after the ridge retry."""


def cho_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor; LinAlgError unless a is finite and positive definite."""
    if not np.isfinite(a).all():  # LAPACK may factor NaN or inf without error
        raise np.linalg.LinAlgError("non-finite entries")
    return np.linalg.cholesky(a)


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b for symmetric positive (semi-)definite a.

    Uses a Cholesky factorization; if a pivot is non-positive the solve is
    retried once with a RIDGE added to the diagonal.  The ridge is scaled
    by the mean diagonal magnitude (floored at 1) so it stays effective
    when the matrix itself is far from unit scale.  A failure after the
    retry raises SingularMatrixError.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(f"solve_spd: matrix must be square, got {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ShapeMismatchError(
            f"solve_spd: rhs has {b.shape[0]} rows, expected {a.shape[0]}"
        )
    # cho_factor reports non-positive pivots and non-finite entries as
    # LinAlgError, which never reaches the caller raw.  A factorization
    # that technically succeeds with a vanishing pivot is treated as
    # near-singular too, otherwise it amplifies rounding noise instead of
    # converging to the minimal-norm solution.
    try:
        factor = cho_factor(a)
        pivots = np.diag(factor)
        if pivots.min() < _PIVOT_RATIO * pivots.max():
            raise np.linalg.LinAlgError("near-singular pivot")
    except np.linalg.LinAlgError:
        eps = RIDGE * max(1.0, float(np.abs(np.diag(a)).mean()))
        if not np.isfinite(eps):
            raise SingularMatrixError(
                f"solve_spd: matrix of shape {a.shape} has non-finite diagonal"
            )
        try:
            factor = cho_factor(a + eps * np.eye(a.shape[0]))
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                f"solve_spd: matrix of shape {a.shape} is singular even with "
                f"ridge {eps:g}"
            ) from exc
    x = np.linalg.solve(factor.T, np.linalg.solve(factor, b))  # L y = b, L^T x = y
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError(
            f"solve_spd: non-finite solution for matrix of shape {a.shape}"
        )
    return x


def frobenius_sq(a: np.ndarray) -> float:
    """Sum of squared entries, accumulated in float64 whatever a's type."""
    flat = a.ravel()
    if flat.dtype == np.float64:
        return float(flat @ flat)  # a BLAS dot costs less per call than einsum
    return float(np.einsum("i,i->", flat, flat, dtype=np.float64))


def column_sums(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=0), bit for bit, at less cost per row on narrow rows.

    Both add the rows of a 2-D array in row order, but einsum's loop has
    less overhead per row.  A single column is a contiguous run, which
    a.sum adds pairwise and einsum does not, so it keeps a.sum.
    """
    if a.shape[1] == 1:
        return a.sum(axis=0)
    return np.einsum("ij->j", a)


def row_blocks(n: int):
    """Slices covering rows 0..n-1 in order: as few as hold at most
    BLOCK_ROWS rows each, their sizes differing by at most one row.  So no
    block is shorter than BLOCK_ROWS/2 unless the whole range is: a matrix
    product over a few rows may round otherwise than the same rows of a
    longer product, and from about 64 rows on they agree."""
    count = -(-n // BLOCK_ROWS)
    for i in range(count):
        yield slice(n * i // count, n * (i + 1) // count)
