import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcidc.metrics import accuracy, contingency_table, nmi


def brute_force_accuracy(predicted, truth):
    """Enumerate every one-to-one cluster-to-class matching."""
    predicted, truth = list(predicted), list(truth)
    clusters = sorted(set(predicted))
    classes = sorted(set(truth))
    wide, narrow = (clusters, classes) if len(clusters) >= len(classes) else (classes, clusters)
    best = 0
    for perm in itertools.permutations(wide, len(narrow)):
        pairing = dict(zip(narrow, perm))
        if len(clusters) >= len(classes):
            matched = sum(1 for p, t in zip(predicted, truth) if pairing.get(t) == p)
        else:
            matched = sum(1 for p, t in zip(predicted, truth) if pairing.get(p) == t)
        best = max(best, matched)
    return best / len(predicted)


def brute_force_nmi(predicted, truth):
    """Direct entropy sums over the joint distribution."""
    n = len(predicted)
    joint = Counter(zip(predicted, truth))
    pc = Counter(predicted)
    tc = Counter(truth)
    h_p = -sum((c / n) * math.log(c / n) for c in pc.values())
    h_t = -sum((c / n) * math.log(c / n) for c in tc.values())
    if h_p == 0.0 and h_t == 0.0:
        return 1.0
    if h_p == 0.0 or h_t == 0.0:
        return 0.0
    mi = sum(
        (c / n) * math.log((c / n) / ((pc[p] / n) * (tc[t] / n)))
        for (p, t), c in joint.items()
    )
    return mi / math.sqrt(h_p * h_t)


labelings = st.integers(4, 12).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
    )
)


@given(st.integers(1, 30).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 6), min_size=n, max_size=n),
        st.lists(st.integers(0, 6), min_size=n, max_size=n),
    )
))
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


class TestAccuracy:
    def test_identity(self):
        assert accuracy([0, 1, 2, 1], [0, 1, 2, 1]) == 1.0

    def test_permuted_labels(self):
        truth = [0, 0, 1, 1, 2]
        renamed = [2, 2, 0, 0, 1]
        assert accuracy(renamed, truth) == 1.0

    def test_small_contingency(self):
        # contingency [[2, 0], [1, 1]]: best matching covers 3 of 4 samples
        predicted = [0, 0, 1, 1]
        truth = [0, 0, 0, 1]
        assert np.array_equal(contingency_table(predicted, truth), [[2, 0], [1, 1]])
        assert accuracy(predicted, truth) == 0.75
        assert brute_force_accuracy(predicted, truth) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([0, 1], [0, 1, 2])

    def test_more_clusters_than_classes(self):
        predicted = [0, 1, 2, 3]
        truth = [0, 0, 1, 1]
        assert accuracy(predicted, truth) == brute_force_accuracy(predicted, truth)

    @given(labelings)
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration(self, pair):
        predicted, truth = pair
        assert accuracy(predicted, truth) == brute_force_accuracy(predicted, truth)

    @given(labelings)
    @settings(max_examples=40, deadline=None)
    def test_at_least_largest_contingency_cell(self, pair):
        # guaranteed lower bound: the single best cluster/class pairing
        predicted, truth = pair
        cell = contingency_table(predicted, truth).max() / len(truth)
        assert accuracy(predicted, truth) >= cell - 1e-12

    @given(st.lists(st.integers(0, 3), min_size=4, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_constant_predictor_scores_majority(self, truth):
        # a one-cluster predictor is matched to the largest truth class
        majority = max(Counter(truth).values()) / len(truth)
        assert accuracy([0] * len(truth), truth) == pytest.approx(majority)


class TestNmi:
    def test_identical_partitions(self):
        assert nmi([0, 1, 0, 1], [0, 1, 0, 1]) == 1.0
        assert nmi([0, 1, 2, 0], [2, 0, 1, 2]) == pytest.approx(1.0, abs=1e-12)

    def test_constant_prediction_scores_zero(self):
        assert nmi([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0

    def test_independent_labels_score_zero(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)
        assert brute_force_nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_both_single_cluster(self):
        assert nmi([0, 0, 0], [0, 0, 0]) == 1.0

    @given(labelings)
    @settings(max_examples=60, deadline=None)
    def test_matches_direct_entropy_sums(self, pair):
        predicted, truth = pair
        assert nmi(predicted, truth) == pytest.approx(
            brute_force_nmi(predicted, truth), abs=1e-10
        )

    @given(labelings)
    @settings(max_examples=40, deadline=None)
    def test_symmetric(self, pair):
        predicted, truth = pair
        assert abs(nmi(predicted, truth) - nmi(truth, predicted)) <= 1e-12

    @given(labelings)
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariant(self, pair):
        predicted, truth = pair
        relabel = {0: 3, 1: 2, 2: 1, 3: 0}
        renamed = [relabel[p] for p in predicted]
        assert nmi(renamed, truth) == pytest.approx(nmi(predicted, truth), abs=1e-12)
        assert accuracy(renamed, truth) == accuracy(predicted, truth)
