import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcidc.linalg import ShapeMismatchError, SingularMatrixError, frobenius_sq, solve_spd


def test_solve_spd_identity():
    b = np.array([[3.0], [4.0]])
    assert np.array_equal(solve_spd(np.eye(2), b), b)


def test_solve_spd_diagonal():
    a = np.array([[2.0, 0.0], [0.0, 4.0]])
    b = np.array([[2.0], [8.0]])
    assert np.allclose(solve_spd(a, b), [[1.0], [2.0]], rtol=1e-14, atol=0)


def test_solve_spd_residual():
    rng = np.random.default_rng(7)
    r = rng.normal(size=(4, 4))
    a = r @ r.T + 4.0 * np.eye(4)
    b = rng.normal(size=(4, 2))
    x = solve_spd(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-10


def test_solve_spd_requires_square():
    with pytest.raises(ShapeMismatchError):
        solve_spd(np.zeros((2, 3)), np.zeros((2, 1)))


def test_solve_spd_irrecoverably_singular():
    # indefinite matrix: the ridge retry cannot rescue a negative eigenvalue
    a = np.array([[-1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(SingularMatrixError):
        solve_spd(a, np.ones((2, 1)))


def test_solve_spd_ridge_handles_psd_singular():
    # rank-1 PSD system with rhs in its range: first factorization fails,
    # the ridged retry recovers a finite near-minimal-norm solution
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([[2.0], [2.0]])
    x = solve_spd(a, b)
    assert np.allclose(a @ x, b, atol=1e-6)


def test_frobenius_examples():
    assert frobenius_sq(np.zeros((3, 2))) == 0.0
    assert frobenius_sq(np.array([[3.0, 4.0]])) == 25.0


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_solve_spd_roundtrip(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    r = rng.normal(size=(n, n))
    a = r @ r.T + n * np.eye(n)
    b = rng.normal(size=(n, 3))
    x = solve_spd(a, b)
    assert np.allclose(a @ x, b, atol=1e-8)


def test_operations_deterministic():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 4))
    spd = a @ a.T + np.eye(5)
    rhs = rng.normal(size=(5, 2))
    assert np.array_equal(solve_spd(spd, rhs), solve_spd(spd.copy(), rhs.copy()))
