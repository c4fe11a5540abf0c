import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dcidc.activations import ActivationKind, derivative
from dcidc.autoencoder import constraint_deltas
from dcidc.clusters import (
    DegenerateCentersError,
    binarize,
    init_indicator,
    intra_class_error,
    update_centers,
    update_indicator,
)
from dcidc.linalg import BLOCK_ROWS, SingularMatrixError, frobenius_sq, solve_spd
from oracles import brute_force_means, pseudoinverse_assignment


def assert_labels(labels, n, k):
    """n integer labels, each a cluster index in [0, k)."""
    assert labels.shape == (n,)
    assert np.issubdtype(labels.dtype, np.integer)
    assert np.all((0 <= labels) & (labels < k))


def nearest_center(codes, centers):
    """Nearest-center labels by brute-force n x d x k distances."""
    return np.argmin(((codes[:, :, None] - centers[None, :, :]) ** 2).sum(axis=1), axis=1)


class TestInitIndicator:
    def test_equal_counts_gives_permutation(self):
        h = init_indicator(3, 3, seed=0)
        assert np.array_equal(np.sort(h), [0, 1, 2])

    def test_every_cluster_covered(self):
        h = init_indicator(5, 2, seed=1)
        assert_labels(h, 5, 2)
        assert np.all(np.bincount(h, minlength=2) >= 1)

    @given(st.integers(1, 6), st.integers(0, 40), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_rows_one_hot(self, k, extra, seed):
        n = k + extra
        h = init_indicator(n, k, seed)
        assert_labels(h, n, k)
        assert np.array_equal(np.sort(h[:k]), np.arange(k))


class TestUpdateCenters:
    def test_mean_formula(self):
        codes = np.array([[0.0, 0.0], [2.0, 2.0], [10.0, 10.0]])
        centers, reseeded = update_centers(codes, np.array([0, 0, 1]), 2)
        assert reseeded == []
        assert np.array_equal(centers[:, 0], [1.0, 1.0])
        assert np.array_equal(centers[:, 1], [10.0, 10.0])

    def test_single_cluster_gives_global_mean(self):
        rng = np.random.default_rng(0)
        codes = rng.normal(size=(12, 3))
        centers, _ = update_centers(codes, np.zeros(12, dtype=np.int64), 1)
        assert np.allclose(centers[:, 0], codes.mean(axis=0), atol=1e-15)

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(5)
        codes = rng.normal(size=(20, 3))
        labels = rng.integers(0, 3, size=20)
        labels[:3] = [0, 1, 2]
        centers, _ = update_centers(codes, labels, 3)
        assert np.array_equal(centers, brute_force_means(codes, labels, 3))

    def test_empty_cluster_reseeded_to_farthest(self):
        codes = np.array([[0.0, 0.0], [1.0, 0.0], [9.0, 9.0]])
        labels = np.array([0, 0, 0])  # cluster 1 empty
        prev = np.array([[0.0, 0.0], [0.0, 0.0]]).T
        centers, reseeded = update_centers(codes, labels, 2, prev)
        assert reseeded == [1]
        assert np.array_equal(centers[:, 1], [9.0, 9.0])

    def test_shape_mismatch(self):
        with pytest.raises(Exception):
            update_centers(np.zeros((3, 2)), np.zeros(4, dtype=np.int64), 2)


class TestUpdateIndicator:
    def test_orthonormal_centers_pick_largest_coordinate(self):
        h = update_indicator(np.array([[0.9, 0.2]]), np.eye(2))
        assert np.array_equal(h, [0])

    def test_exact_center_match(self):
        centers = np.array([[2.0, 0.0], [0.0, 3.0]])  # orthogonal columns
        h = update_indicator(np.array([[0.0, 3.0]]), centers)
        assert np.array_equal(h, [1])

    def test_matches_pseudoinverse_oracle(self):
        rng = np.random.default_rng(21)
        base = np.array([[1.0, 0.0, 0.1], [0.0, 1.0, 0.1], [0.1, 0.1, 1.0]])
        centers = base + 0.05 * rng.normal(size=(3, 3))
        codes = centers.T[rng.integers(0, 3, size=10)] + 0.05 * rng.normal(size=(10, 3))
        got = update_indicator(codes, centers)
        assert np.array_equal(got, pseudoinverse_assignment(codes, centers))

    def test_degenerate_centers_error(self):
        centers = np.full((2, 2), 1e300)  # gram overflows to inf
        with pytest.raises(DegenerateCentersError):
            update_indicator(np.ones((3, 2)), centers)

    def test_non_finite_code_row_raises(self):
        codes = np.array([[1.0, 0.0], [np.nan, 0.5], [0.0, 1.0]])
        with pytest.raises(DegenerateCentersError):
            update_indicator(codes, np.array([[1.0, 0.2], [0.1, 1.0]]))

    def test_tie_broken_by_lowest_index(self):
        assert np.array_equal(binarize(np.array([[0.5, 0.5, 0.1],
                                                 [0.1, 0.7, 0.7]])), [0, 1])


class TestIntraClassError:
    def test_zero_at_centers(self):
        centers = np.array([[1.0, -1.0], [2.0, 0.0]])
        labels = np.array([0, 1, 0])
        codes = np.eye(2)[labels] @ centers.T
        assert intra_class_error(codes, labels, centers) == 0.0

    def test_pair_example(self):
        codes = np.array([[0.0, 0.0], [2.0, 2.0]])
        centers = np.array([[1.0], [1.0]])
        assert intra_class_error(codes, np.array([0, 0]), centers) == 4.0

    def test_frobenius_equals_summation_form(self):
        rng = np.random.default_rng(17)
        codes = rng.normal(size=(25, 4))
        labels = rng.integers(0, 3, size=25)
        centers = rng.normal(size=(4, 3))
        direct = sum(
            float(((codes[r] - centers[:, labels[r]]) ** 2).sum()) for r in range(25)
        )
        assert intra_class_error(codes, labels, centers) == pytest.approx(
            direct, abs=1e-10
        )


class TestProperties:
    def test_centers_minimize_intra_class_error(self):
        rng = np.random.default_rng(3)
        codes = rng.normal(size=(30, 3))
        labels = rng.integers(0, 4, size=30)
        labels[:4] = np.arange(4)
        centers, _ = update_centers(codes, labels, 4)
        best = intra_class_error(codes, labels, centers)
        for trial in range(5):
            bumped = centers.copy()
            bumped[:, trial % 4] += rng.normal(size=3) * 0.1
            assert intra_class_error(codes, labels, bumped) > best

    def test_column_sums_are_cluster_sizes(self):
        h = init_indicator(40, 5, seed=9)
        sizes = np.bincount(h, minlength=5)
        assert sizes.sum() == 40 and sizes.size == 5
        assert np.all(sizes >= 1)

    def test_alternation_monotone_for_orthonormal_centers(self):
        # with orthonormal centers the least-squares argmax equals
        # nearest-center assignment, so one indicator+center update cannot
        # increase the intra-class error (not asserted for general centers)
        rng = np.random.default_rng(23)
        codes = np.concatenate([
            rng.normal(loc, 0.2, size=(15, 3))
            for loc in ([1, 0, 0], [0, 1, 0], [0, 0, 1])
        ])
        start_centers = np.eye(3)
        start_h = init_indicator(45, 3, seed=23)
        before = intra_class_error(codes, start_h, start_centers)
        new_h = update_indicator(codes, start_centers)
        new_centers, reseeded = update_centers(codes, new_h, 3)
        assert reseeded == []
        after = intra_class_error(codes, new_h, new_centers)
        assert after <= before

    def test_orthonormal_centers_agree_with_nearest(self):
        rng = np.random.default_rng(11)
        codes = rng.normal(size=(50, 3)) * 0.4
        assert np.array_equal(update_indicator(codes, np.eye(3)),
                              nearest_center(codes, np.eye(3)))


@st.composite
def labeled_codes(draw):
    """float32 codes (n x width) and n labels over k clusters, some of which
    may be empty."""
    n = draw(st.integers(1, 40))
    width = draw(st.integers(1, 4))
    k = draw(st.integers(1, 5))
    codes = draw(hnp.arrays(np.float32, (n, width),
                            elements=st.floats(-1e3, 1e3, width=32)))
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
    return codes, labels, k


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_float32_centers_equal_widened_centers(seed):
    rng = np.random.default_rng(seed)
    n, width, k = (int(rng.integers(1, hi)) for hi in (20000, 40, 20))
    scale = 10 ** rng.uniform(-3, 3)
    codes = (rng.standard_normal((n, width)) * scale).astype(np.float32)
    labels = rng.integers(0, k, size=n)
    prev = rng.normal(size=(width, k))  # a few hundred rows may leave a cluster empty
    narrow, narrow_reseeded = update_centers(codes, labels, k, prev)
    wide, wide_reseeded = update_centers(codes.astype(np.float64), labels, k, prev)
    assert narrow.dtype == np.float64
    assert np.array_equal(narrow, wide) and narrow_reseeded == wide_reseeded
    for i in set(range(k)) - set(narrow_reseeded):  # the mask-loop oracle
        members = codes[labels == i]
        want = members.astype(np.float64).sum(axis=0) / len(members)
        assert narrow[:, i].tobytes() == want.tobytes()


@pytest.mark.parametrize("width", [1, 3, 16])
def test_member_sums_over_row_blocks_equal_one_pass(width):
    # float64 codes over twelve decades fill every mantissa bit, so a sum
    # in any row order but one pass over the members rounds otherwise
    n = 4 * BLOCK_ROWS + 13
    rng = np.random.default_rng(width)
    codes = rng.standard_normal((n, width)) * 10.0 ** rng.uniform(-6, 6, size=(n, 1))
    labels = (rng.uniform(size=n) < 0.1).astype(np.int64)  # most rows in cluster 0
    centers, _ = update_centers(codes, labels, 2)
    for i in range(2):
        members = codes[labels == i]
        want = members.sum(axis=0) / len(members)
        assert centers[:, i].tobytes() == want.tobytes()


@given(labeled_codes())
@settings(max_examples=100, deadline=None)
def test_centers_inside_member_bounding_box(instance):
    codes, labels, k = instance
    prev = np.zeros((codes.shape[1], k))  # some clusters may be empty
    centers, reseeded = update_centers(codes, labels, k, prev)
    for i in range(k):
        if i in reseeded:
            continue
        members = codes[labels == i]
        assert np.all(members.min(axis=0) <= centers[:, i])
        assert np.all(centers[:, i] <= members.max(axis=0))


@given(
    hnp.arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 4)),
               elements=st.floats(-1e6, 1e6)),
    st.integers(1, 5),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=100, deadline=None)
def test_update_indicator_rows_one_hot(codes, k, seed):
    centers = np.random.default_rng(seed).normal(size=(codes.shape[1], k))
    try:
        labels = update_indicator(codes, centers)
    except DegenerateCentersError:
        return
    assert_labels(labels, codes.shape[0], k)


@given(st.integers(1, 5), st.integers(0, 3), st.integers(1, 30), st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_orthonormal_centers_no_disagreement(k, extra, n, seed):
    """Codes whose largest coefficient on the centers leads by a margin: the
    least-squares rule and nearest-center then pick the same cluster."""
    rng = np.random.default_rng(seed)
    width = k + extra
    centers, _ = np.linalg.qr(rng.normal(size=(width, k)))
    coeffs = rng.normal(size=(n, k))
    top2 = np.sort(coeffs, axis=1)[:, -2:] if k > 1 else None
    assume(top2 is None or np.all(top2[:, 1] - top2[:, 0] > 1e-6))
    off_span = rng.normal(size=(n, width))
    off_span -= off_span @ centers @ centers.T
    codes = coeffs @ centers.T + off_span
    assert np.array_equal(update_indicator(codes, centers), nearest_center(codes, centers))


@given(
    st.sampled_from([np.float32, np.float64]),
    st.integers(1, 30),
    st.integers(1, 4),
    st.integers(1, 6),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_label_gather_equals_one_hot_product(dtype, n, width, k, draw):
    """H S^T gathered from labels equals the one-hot product, in both the
    intra-class error and the code-layer constraint signal.  Labels use only
    the first `used` clusters, so the later ones are empty."""
    used = draw.draw(st.integers(1, k))
    labels = draw.draw(hnp.arrays(np.int64, n, elements=st.integers(0, used - 1)))
    finite = st.floats(-1e3, 1e3, width=32)
    codes = draw.draw(hnp.arrays(dtype, (n, width), elements=finite))
    centers = draw.draw(hnp.arrays(np.float64, (width, k), elements=finite))
    one_hot = np.eye(k)[labels]

    expected = frobenius_sq(codes.astype(np.float64) - one_hot @ centers.T)
    assert intra_class_error(codes, labels, centers) == expected

    slope = derivative(ActivationKind.TANH, codes)
    assigned = one_hot.astype(dtype) @ centers.T.astype(dtype)
    expected = (codes - assigned) * slope
    got = constraint_deltas(codes, labels, centers, slope)
    assert got.dtype == dtype and np.array_equal(got, expected)


@given(st.integers(1, 5), st.integers(0, 3), st.integers(1, 40), st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_update_indicator_matches_lstsq_argmax(k, extra, n, seed):
    """On well-conditioned centers, the projection labels each code with the
    largest least-squares coefficient, wherever the top two differ by a
    margin."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(k + extra, k)) * 10 ** rng.uniform(-2, 2)
    assume(np.linalg.cond(centers) < 1e3)
    codes = rng.normal(size=(n, k + extra)) * 10 ** rng.uniform(-2, 2)
    coeffs = np.linalg.lstsq(centers, codes.T, rcond=None)[0].T
    top2 = np.sort(coeffs, axis=1)[:, -2:]
    assume(k == 1 or np.all(top2[:, 1] - top2[:, 0] > 1e-6 * np.abs(top2).max()))
    assert np.array_equal(update_indicator(codes, centers), np.argmax(coeffs, axis=1))


@given(labeled_codes(), st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_float32_codes_equal_widened_codes(instance, seed):
    """float32 codes and the same codes widened by the caller give the same
    labels and the same intra-class error, bit for bit."""
    codes, labels, k = instance
    wide = codes.astype(np.float64)
    centers = np.random.default_rng(seed).normal(size=(codes.shape[1], k)) * 100
    assert intra_class_error(codes, labels, centers) == intra_class_error(
        wide, labels, centers
    )
    try:
        expected = update_indicator(wide, centers)
    except DegenerateCentersError:
        with pytest.raises(DegenerateCentersError):
            update_indicator(codes, centers)
        return
    assert np.array_equal(update_indicator(codes, centers), expected)


@given(
    st.sampled_from([np.float32, np.float64]),
    st.sampled_from(range(4)),
    st.integers(1, 16),
    st.integers(1, 9),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_row_blocked_indicator_equals_whole_array_product(dtype, case, width, k, seed):
    """Labels taken one row block at a time equal those of one whole-array
    product, at row counts on both sides of the block boundaries."""
    n = [1, BLOCK_ROWS - 1, BLOCK_ROWS, 3 * BLOCK_ROWS + 7][case]
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(width, k))
    codes = rng.normal(size=(n, width)).astype(dtype)
    try:
        projection = solve_spd(centers.T @ centers, centers.T)
    except SingularMatrixError:
        with pytest.raises(DegenerateCentersError):
            update_indicator(codes, centers)
        return
    expected = binarize(codes.astype(np.float64) @ projection.T)
    got = update_indicator(codes, centers)
    assert got.dtype == np.int64 and np.array_equal(got, expected)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_non_finite_code_in_last_block_raises(dtype):
    rng = np.random.default_rng(3)
    centers = rng.normal(size=(16, 9))
    codes = rng.normal(size=(3 * BLOCK_ROWS + 7, 16)).astype(dtype)
    codes[-1, 5] = np.nan
    with pytest.raises(DegenerateCentersError, match="non-finite coefficients"):
        update_indicator(codes, centers)


def test_indicator_on_float32_codes_widens_no_whole_code_array():
    n, width = 20000, 16
    rng = np.random.default_rng(4)
    codes = rng.normal(size=(n, width)).astype(np.float32)
    centers = rng.normal(size=(width, 9))
    tracemalloc.start()
    try:
        update_indicator(codes, centers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * width * 8


def test_center_update_widens_no_whole_code_array():
    # every row in cluster 0, so its members are all the codes, and the
    # empty cluster 1 is re-seeded against its previous center
    n, width = 20000, 16
    rng = np.random.default_rng(6)
    codes = rng.normal(size=(n, width)).astype(np.float32)
    labels = np.zeros(n, dtype=np.int64)
    prev = rng.normal(size=(width, 2))
    tracemalloc.start()
    try:
        centers, reseeded = update_centers(codes, labels, 2, prev)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reseeded == [1]
    assert peak < n * width * 4


def test_reseed_over_row_blocks_equals_whole_array_argmax():
    n, width = 3 * BLOCK_ROWS + 11, 5
    rng = np.random.default_rng(8)
    codes = rng.uniform(-1, 1, size=(n, width)).astype(np.float32)
    prev_centers = np.zeros((width, 2))
    labels = np.zeros(n, dtype=np.int64)  # cluster 1 is empty

    def reseeded_row(codes):
        centers, reseeded = update_centers(codes, labels, 2, prev_centers)
        assert reseeded == [1]
        # the whole-array oracle, from the previous center
        want = int(np.argmax(((codes - prev_centers[:, 1]) ** 2).sum(axis=1)))
        assert centers[:, 1].tobytes() == codes[want].astype(np.float64).tobytes()
        return want

    far = np.full(width, 40.0, dtype=np.float32)
    codes[n - 3] = far  # the farthest row, in the last block
    assert reseeded_row(codes) == n - 3
    # another row as far from the zero center, in the first block, wins the tie
    codes[BLOCK_ROWS // 2] = far * [-1, 1, 1, 1, 1]
    assert reseeded_row(codes) == BLOCK_ROWS // 2
