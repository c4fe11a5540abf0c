import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcidc import linalg
from dcidc.linalg import (
    BLOCK_ROWS,
    ShapeMismatchError,
    SingularMatrixError,
    column_sums,
    frobenius_sq,
    row_blocks,
    solve_spd,
)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_solve_spd_non_finite_matrix(bad, where):
    # numpy's Cholesky alone can return NaN factors for such input
    a = np.array([[2.0, 0.5], [0.5, 2.0]])
    a[where] = a[where[::-1]] = bad
    with pytest.raises(np.linalg.LinAlgError):
        linalg.cho_factor(a)
    with pytest.raises(SingularMatrixError):
        solve_spd(a, np.ones((2, 1)))


def test_solve_spd_factors_once_per_attempt(monkeypatch):
    # ridge retries are counted as cho_factor calls beyond the first
    calls = []

    def counted(a):
        calls.append(a)
        return factor(a)

    factor = linalg.cho_factor
    monkeypatch.setattr(linalg, "cho_factor", counted)
    solve_spd(np.eye(2), np.ones((2, 1)))
    assert len(calls) == 1
    solve_spd(np.ones((2, 2)), np.full((2, 1), 2.0))
    assert len(calls) == 3


def test_frobenius_examples():
    assert frobenius_sq(np.zeros((3, 2))) == 0.0
    assert frobenius_sq(np.array([[3.0, 4.0]])) == 25.0


def test_frobenius_accumulates_float32_in_float64():
    # float32 accumulation drops every 0.0625 once the sum reaches 2**24
    a = np.array([4096.0] + [0.25] * 100000, dtype=np.float32)
    assert frobenius_sq(a) == 4096.0**2 + 100000 / 16


def random_rows(seed, rows, cols, dtype):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((rows, cols)) * 10 ** rng.uniform(-3, 3)).astype(dtype)


@given(st.integers(0, 3000), st.integers(1, 260),
       st.sampled_from([np.float32, np.float64]), st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_column_sums_equal_sum_bit_for_bit(rows, cols, dtype, seed):
    a = random_rows(seed, rows, cols, dtype)
    got = column_sums(a)
    assert got.dtype == a.dtype
    assert got.tobytes() == a.sum(axis=0).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(3000, 1), (1, 1), (0, 1), (112500, 16)])
def test_column_sums_one_column_and_scene_shape(shape, dtype):
    # a single column is summed pairwise by a.sum, which row order does not match
    a = random_rows(11, *shape, dtype)
    assert column_sums(a).tobytes() == a.sum(axis=0).tobytes()


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


@given(st.integers(0, 10 * BLOCK_ROWS))
def test_row_blocks_cover_the_rows_with_no_short_block(n):
    """In order and whole, at most BLOCK_ROWS rows each, sizes within one
    row of each other, so none is shorter than BLOCK_ROWS/2 unless the
    range is."""
    blocks = list(row_blocks(n))
    bounds = [0] + [b.stop for b in blocks]
    assert [b.start for b in blocks] == bounds[:-1] and bounds[-1] == n
    sizes = [b.stop - b.start for b in blocks]
    assert len(blocks) == -(-n // BLOCK_ROWS)
    assert all(0 < size <= BLOCK_ROWS for size in sizes)
    assert not sizes or max(sizes) - min(sizes) <= 1
    assert len(sizes) < 2 or min(sizes) >= BLOCK_ROWS // 2
