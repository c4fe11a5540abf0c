import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dcidc.clusters import (
    DegenerateCentersError,
    assignment_disagreement,
    binarize,
    init_indicator,
    intra_class_error,
    labels_from_indicator,
    update_centers,
    update_indicator,
    validate_indicator,
)


def brute_force_means(codes, indicator):
    """Per-cluster mean oracle: explicit row collection, same reduction."""
    k = indicator.shape[1]
    centers = np.zeros((codes.shape[1], k))
    for i in range(k):
        rows = [codes[r] for r in range(codes.shape[0]) if indicator[r, i] == 1.0]
        centers[:, i] = np.array(rows).sum(axis=0) / len(rows)
    return centers


def pseudoinverse_assignment(codes, centers):
    """Independent per-sample least-squares + argmax oracle."""
    pinv = np.linalg.pinv(centers)
    out = np.zeros((codes.shape[0], centers.shape[1]))
    for r in range(codes.shape[0]):
        coeff = pinv @ codes[r]
        out[r, int(np.argmax(coeff))] = 1.0
    return out


class TestInitIndicator:
    def test_equal_counts_gives_permutation(self):
        h = init_indicator(3, 3, seed=0)
        assert np.array_equal(h.sum(axis=0), [1.0, 1.0, 1.0])
        assert np.array_equal(h.sum(axis=1), [1.0, 1.0, 1.0])

    def test_every_cluster_covered(self):
        h = init_indicator(5, 2, seed=1)
        assert h.shape == (5, 2)
        validate_indicator(h)
        assert np.all(h.sum(axis=0) >= 1.0)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            init_indicator(2, 3, seed=0)

    @given(st.integers(1, 6), st.integers(0, 40), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_rows_one_hot(self, k, extra, seed):
        n = k + extra
        h = init_indicator(n, k, seed)
        validate_indicator(h)
        assert h.sum() == n


class TestUpdateCenters:
    def test_mean_formula(self):
        codes = np.array([[0.0, 0.0], [2.0, 2.0], [10.0, 10.0]])
        indicator = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        centers, reseeded = update_centers(codes, indicator)
        assert reseeded == []
        assert np.array_equal(centers[:, 0], [1.0, 1.0])
        assert np.array_equal(centers[:, 1], [10.0, 10.0])

    def test_single_cluster_gives_global_mean(self):
        rng = np.random.default_rng(0)
        codes = rng.normal(size=(12, 3))
        indicator = np.ones((12, 1))
        centers, _ = update_centers(codes, indicator)
        assert np.allclose(centers[:, 0], codes.mean(axis=0), atol=1e-15)

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(5)
        codes = rng.normal(size=(20, 3))
        labels = rng.integers(0, 3, size=20)
        labels[:3] = [0, 1, 2]
        indicator = np.zeros((20, 3))
        indicator[np.arange(20), labels] = 1.0
        centers, _ = update_centers(codes, indicator)
        assert np.array_equal(centers, brute_force_means(codes, indicator))

    def test_empty_cluster_reseeded_to_farthest(self):
        codes = np.array([[0.0, 0.0], [1.0, 0.0], [9.0, 9.0]])
        indicator = np.zeros((3, 2))
        indicator[:, 0] = 1.0  # cluster 1 empty
        prev = np.array([[0.0, 0.0], [0.0, 0.0]]).T
        centers, reseeded = update_centers(codes, indicator, prev)
        assert reseeded == [1]
        assert np.array_equal(centers[:, 1], [9.0, 9.0])

    def test_shape_mismatch(self):
        with pytest.raises(Exception):
            update_centers(np.zeros((3, 2)), np.zeros((4, 2)))


class TestUpdateIndicator:
    def test_orthonormal_centers_pick_largest_coordinate(self):
        h = update_indicator(np.array([[0.9, 0.2]]), np.eye(2))
        assert np.array_equal(h, [[1.0, 0.0]])

    def test_exact_center_match(self):
        centers = np.array([[2.0, 0.0], [0.0, 3.0]])  # orthogonal columns
        h = update_indicator(np.array([[0.0, 3.0]]), centers)
        assert np.array_equal(h, [[0.0, 1.0]])

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

    def test_tie_broken_by_lowest_index(self):
        assert np.array_equal(binarize(np.array([[0.5, 0.5, 0.1]])),
                              [[1.0, 0.0, 0.0]])


class TestIntraClassError:
    def test_zero_at_centers(self):
        centers = np.array([[1.0, -1.0], [2.0, 0.0]])
        indicator = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        codes = indicator @ centers.T
        assert intra_class_error(codes, indicator, centers) == 0.0

    def test_pair_example(self):
        codes = np.array([[0.0, 0.0], [2.0, 2.0]])
        indicator = np.ones((2, 1))
        centers = np.array([[1.0], [1.0]])
        assert intra_class_error(codes, indicator, centers) == 4.0

    def test_frobenius_equals_summation_form(self):
        rng = np.random.default_rng(17)
        codes = rng.normal(size=(25, 4))
        labels = rng.integers(0, 3, size=25)
        indicator = np.zeros((25, 3))
        indicator[np.arange(25), labels] = 1.0
        centers = rng.normal(size=(4, 3))
        direct = sum(
            float(((codes[r] - centers[:, labels[r]]) ** 2).sum()) for r in range(25)
        )
        assert intra_class_error(codes, indicator, centers) == pytest.approx(
            direct, abs=1e-10
        )


class TestProperties:
    def test_centers_minimize_intra_class_error(self):
        rng = np.random.default_rng(3)
        codes = rng.normal(size=(30, 3))
        labels = rng.integers(0, 4, size=30)
        labels[:4] = np.arange(4)
        indicator = np.zeros((30, 4))
        indicator[np.arange(30), labels] = 1.0
        centers, _ = update_centers(codes, indicator)
        best = intra_class_error(codes, indicator, centers)
        for trial in range(5):
            bumped = centers.copy()
            bumped[:, trial % 4] += rng.normal(size=3) * 0.1
            assert intra_class_error(codes, indicator, bumped) > best

    def test_column_sums_are_cluster_sizes(self):
        h = init_indicator(40, 5, seed=9)
        assert h.sum() == 40
        assert np.all(h.sum(axis=0) >= 1)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_binarize_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(6, 4))
        once = binarize(rows)
        assert np.array_equal(binarize(once), once)

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
        new_centers, reseeded = update_centers(codes, new_h)
        assert reseeded == []
        after = intra_class_error(codes, new_h, new_centers)
        assert after <= before

    def test_orthonormal_centers_agree_with_nearest(self):
        rng = np.random.default_rng(11)
        codes = rng.normal(size=(50, 3)) * 0.4
        assert assignment_disagreement(codes, np.eye(3)) == 0

    def test_labels_from_indicator(self):
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(labels_from_indicator(h), [1, 0])


@st.composite
def labeled_codes(draw):
    """float32 codes (n x width) and a one-hot indicator over k clusters,
    some of which may be empty."""
    n = draw(st.integers(1, 40))
    width = draw(st.integers(1, 4))
    k = draw(st.integers(1, 5))
    codes = draw(hnp.arrays(np.float32, (n, width),
                            elements=st.floats(-1e3, 1e3, width=32)))
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
    indicator = np.zeros((n, k))
    indicator[np.arange(n), labels] = 1.0
    return codes, indicator


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_float32_centers_equal_widened_centers(seed):
    rng = np.random.default_rng(seed)
    n, width, k = (int(rng.integers(1, hi)) for hi in (20000, 40, 20))
    scale = 10 ** rng.uniform(-3, 3)
    codes = (rng.standard_normal((n, width)) * scale).astype(np.float32)
    indicator = np.zeros((n, k))
    indicator[np.arange(n), rng.integers(0, k, size=n)] = 1.0
    narrow, narrow_reseeded = update_centers(codes, indicator)
    wide, wide_reseeded = update_centers(codes.astype(np.float64), indicator)
    assert narrow.dtype == np.float64
    assert np.array_equal(narrow, wide) and narrow_reseeded == wide_reseeded


@given(labeled_codes())
@settings(max_examples=100, deadline=None)
def test_centers_inside_member_bounding_box(instance):
    codes, indicator = instance
    centers, reseeded = update_centers(codes, indicator)
    for i in range(indicator.shape[1]):
        if i in reseeded:
            continue
        members = codes[indicator[:, i] == 1.0]
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
        indicator = update_indicator(codes, centers)
    except DegenerateCentersError:
        return
    validate_indicator(indicator)
    assert indicator.shape == (codes.shape[0], k)


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
    assert assignment_disagreement(codes, centers) == 0
