from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcidc.metrics import accuracy, contingency_table, dense_labels, matched_sum, nmi
from oracles import brute_force_accuracy, brute_force_nmi


labelings = st.integers(4, 12).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
    )
)


sparse_labelings = st.integers(1, 30).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 6), min_size=n, max_size=n),
        st.lists(st.integers(0, 6), min_size=n, max_size=n),
    )
)


@given(sparse_labelings)
@example(([0, 3, 3], [2, 0, 2]))  # labels 1 and 2 predicted by none, 1 true of none
@settings(max_examples=100, deadline=None)
def test_contingency_matches_add_at(pair):
    """Short label lists over 0..6 leave some labels absent from one side or
    both; their rows and columns stay in the table as zeros."""
    predicted, truth = (np.array(labels) for labels in pair)
    expected = np.zeros((predicted.max() + 1, truth.max() + 1), dtype=np.int64)
    np.add.at(expected, (predicted, truth), 1)
    table = contingency_table(predicted, truth)
    assert table.dtype == np.int64 and np.array_equal(table, expected)


@given(sparse_labelings)
@example(([0, 3, 3], [2, 0, 2]))
@settings(max_examples=150, deadline=None)
def test_dense_labels_keep_both_metrics_bit_for_bit(pair):
    """Renumbering by rank drops only the all-zero rows and columns, which
    add nothing to the matching or to any entropy sum."""
    predicted, truth = (np.array(labels) for labels in pair)
    dense = contingency_table(dense_labels(predicted), dense_labels(truth))
    table = contingency_table(predicted, truth)
    assert dense.shape == (len(set(pair[0])), len(set(pair[1])))
    assert accuracy(dense) == accuracy(table)
    assert nmi(dense) == nmi(table)


tables = st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(0, 40)).flatmap(
    lambda shape: st.lists(
        st.integers(0, shape[2]), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
    ).map(lambda cells: np.array(cells, dtype=np.int64).reshape(shape[:2]))
)


@given(tables)
@example(np.zeros((1, 5), dtype=np.int64))
@example(np.zeros((4, 1), dtype=np.int64))
@example(np.zeros((3, 3), dtype=np.int64))
@example(np.array([[0, 7, 0, 2]]))
@example(np.array([[1], [5], [5]]))
@example(np.array([[5, 5, 0], [5, 5, 0], [4, 0, 0]]))  # tied best entries
@settings(max_examples=200, deadline=None)
def test_matched_sum_equals_linear_sum_assignment(table):
    """Rectangular tables of either orientation, ties and zero lines."""
    optimize = pytest.importorskip("scipy.optimize")
    rows, cols = optimize.linear_sum_assignment(table, maximize=True)
    assert matched_sum(table) == int(table[rows, cols].sum())


class TestAccuracy:
    def test_identity(self):
        assert accuracy(contingency_table([0, 1, 2, 1], [0, 1, 2, 1])) == 1.0

    def test_permuted_labels(self):
        truth = [0, 0, 1, 1, 2]
        renamed = [2, 2, 0, 0, 1]
        assert accuracy(contingency_table(renamed, truth)) == 1.0

    def test_small_contingency(self):
        # contingency [[2, 0], [1, 1]]: best matching covers 3 of 4 samples
        predicted = [0, 0, 1, 1]
        truth = [0, 0, 0, 1]
        assert np.array_equal(contingency_table(predicted, truth), [[2, 0], [1, 1]])
        assert accuracy(contingency_table(predicted, truth)) == 0.75
        assert brute_force_accuracy(predicted, truth) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            contingency_table([0, 1], [0, 1, 2])

    def test_more_clusters_than_classes(self):
        predicted = [0, 1, 2, 3]
        truth = [0, 0, 1, 1]
        table = contingency_table(predicted, truth)
        assert accuracy(table) == brute_force_accuracy(predicted, truth)

    @given(labelings)
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration(self, pair):
        predicted, truth = pair
        table = contingency_table(predicted, truth)
        assert accuracy(table) == brute_force_accuracy(predicted, truth)

    @given(labelings)
    @settings(max_examples=40, deadline=None)
    def test_at_least_largest_contingency_cell(self, pair):
        # guaranteed lower bound: the single best cluster/class pairing
        predicted, truth = pair
        cell = contingency_table(predicted, truth).max() / len(truth)
        assert accuracy(contingency_table(predicted, truth)) >= cell - 1e-12

    @given(st.lists(st.integers(0, 3), min_size=4, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_constant_predictor_scores_majority(self, truth):
        # a one-cluster predictor is matched to the largest truth class
        majority = max(Counter(truth).values()) / len(truth)
        assert accuracy(contingency_table([0] * len(truth), truth)) == pytest.approx(majority)


class TestNmi:
    def test_identical_partitions(self):
        assert nmi(contingency_table([0, 1, 0, 1], [0, 1, 0, 1])) == 1.0
        assert nmi(contingency_table([0, 1, 2, 0], [2, 0, 1, 2])) == pytest.approx(1.0, abs=1e-12)

    def test_constant_prediction_scores_zero(self):
        assert nmi(contingency_table([0, 0, 0, 0], [0, 0, 1, 1])) == 0.0

    def test_independent_labels_score_zero(self):
        assert nmi(contingency_table([0, 0, 1, 1], [0, 1, 0, 1])) == pytest.approx(0.0, abs=1e-12)
        assert brute_force_nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_both_single_cluster(self):
        assert nmi(contingency_table([0, 0, 0], [0, 0, 0])) == 1.0

    @given(labelings)
    @settings(max_examples=60, deadline=None)
    def test_matches_direct_entropy_sums(self, pair):
        predicted, truth = pair
        assert nmi(contingency_table(predicted, truth)) == pytest.approx(
            brute_force_nmi(predicted, truth), abs=1e-10
        )

    @given(labelings)
    @settings(max_examples=40, deadline=None)
    def test_symmetric(self, pair):
        predicted, truth = pair
        forward = nmi(contingency_table(predicted, truth))
        assert abs(forward - nmi(contingency_table(truth, predicted))) <= 1e-12

    @given(labelings)
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariant(self, pair):
        predicted, truth = pair
        relabel = {0: 3, 1: 2, 2: 1, 3: 0}
        renamed = [relabel[p] for p in predicted]
        table, relabeled = contingency_table(predicted, truth), contingency_table(renamed, truth)
        assert nmi(relabeled) == pytest.approx(nmi(table), abs=1e-12)
        assert accuracy(relabeled) == accuracy(table)
