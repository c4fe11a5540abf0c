"""Shared matrix kernels: a guarded SPD solve and the squared Frobenius norm.

solve_spd is the Cholesky solve behind the assignment update; frobenius_sq
is the squared norm in the loss terms.  Other matrix arithmetic is plain
numpy on 2-D float64 arrays, one row per sample.  Both kernels are
deterministic: identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

RIDGE = 1e-8
_PIVOT_RATIO = 1e-7  # smallest/largest Cholesky pivot considered healthy


class ShapeMismatchError(ValueError):
    """Operands have incompatible shapes."""


class SingularMatrixError(ValueError):
    """System stayed numerically singular even after the ridge retry."""


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
    # scipy reports non-positive pivots as LinAlgError and non-finite
    # entries as ValueError; neither shape reaches the caller raw.  A
    # factorization that technically succeeds with a vanishing pivot is
    # treated as near-singular too, otherwise it amplifies rounding noise
    # instead of converging to the minimal-norm solution.
    try:
        factor = cho_factor(a, lower=True)
        pivots = np.diag(factor[0])
        if pivots.min() < _PIVOT_RATIO * pivots.max():
            raise np.linalg.LinAlgError("near-singular pivot")
        x = cho_solve(factor, b)
    except (np.linalg.LinAlgError, ValueError):
        eps = RIDGE * max(1.0, float(np.abs(np.diag(a)).mean()))
        if not np.isfinite(eps):
            raise SingularMatrixError(
                f"solve_spd: matrix of shape {a.shape} has non-finite diagonal"
            )
        try:
            x = cho_solve(cho_factor(a + eps * np.eye(a.shape[0]), lower=True), b)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise SingularMatrixError(
                f"solve_spd: matrix of shape {a.shape} is singular even with "
                f"ridge {eps:g}"
            ) from exc
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError(
            f"solve_spd: non-finite solution for matrix of shape {a.shape}"
        )
    return x


def frobenius_sq(a: np.ndarray) -> float:
    """Sum of squared entries."""
    flat = a.ravel()
    return float(flat @ flat)
