"""AUC, error rate, MSE/RMSE."""

import math

import numpy as np
import pytest

from gpnam import metrics
from gpnam.errors import UndefinedMetricError


def pair_counting_auc(scores, labels):
    """Exhaustive O(n^2) oracle: correctly ordered pairs, ties half credit."""
    scores = np.asarray(scores, float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_ranking(self):
        assert metrics.auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert metrics.auc([0.4] * 6, [1, 0, 1, 0, 0, 1]) == 0.5

    def test_three_quarters(self):
        got = metrics.auc([0.1, 0.9, 0.8, 0.3], [0, 1, 0, 1])
        assert got == pytest.approx(pair_counting_auc([0.1, 0.9, 0.8, 0.3],
                                                      [0, 1, 0, 1]), abs=1e-12)
        assert got == 0.75

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = rng.integers(5, 60)
            scores = np.round(rng.uniform(size=n), 1)  # force some ties
            labels = (rng.uniform(size=n) < 0.5).astype(int)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            want = pair_counting_auc(scores, labels)
            assert metrics.auc(scores, labels) == pytest.approx(want, abs=1e-12)

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            metrics.auc([0.1, 0.9], [1, 1])

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=200)
        labels = (rng.uniform(size=200) < 0.4).astype(int)
        base = metrics.auc(scores, labels)
        assert metrics.auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert metrics.auc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)

    def test_complement_under_negation(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=150)  # continuous, no ties
        labels = (rng.uniform(size=150) < 0.5).astype(int)
        a = metrics.auc(scores, labels)
        b = metrics.auc(-scores, labels)
        assert a + b == pytest.approx(1.0, abs=1e-12)


class TestErrorRate:
    def test_perfect(self):
        assert metrics.error_rate([0.9, 0.1, 0.8], [1, 0, 1]) == 0.0

    def test_inverted(self):
        assert metrics.error_rate([0.1, 0.9, 0.2], [1, 0, 1]) == 1.0

    def test_tie_rule(self):
        got = metrics.error_rate([0.6, 0.4, 0.5], [1, 1, 0])
        assert got == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_single_class_allowed(self):
        assert metrics.error_rate([0.9, 0.8], [1, 1]) == 0.0


class TestMseRmse:
    def test_zero_on_equal(self):
        y = np.array([1.0, 2.0, 3.0])
        assert metrics.mse(y, y) == 0.0
        assert metrics.rmse(y, y) == 0.0

    def test_unit_errors(self):
        assert metrics.mse([1.0, -1.0], [0.0, 0.0]) == 1.0
        assert metrics.rmse([1.0, -1.0], [0.0, 0.0]) == 1.0

    def test_matches_pairwise_summation_oracle(self):
        rng = np.random.default_rng(3)
        pred = rng.normal(size=1000)
        y = rng.normal(size=1000)
        want = math.fsum((p - t) ** 2 for p, t in zip(pred, y)) / 1000
        assert metrics.mse(pred, y) == pytest.approx(want, abs=1e-12)
        assert metrics.rmse(pred, y) ** 2 == pytest.approx(metrics.mse(pred, y),
                                                           abs=1e-10)

    def test_finite_inputs_whose_square_overflows_give_inf(self):
        # no overflow warning: the caller decides what an infinite score means
        assert metrics.mse(np.array([1e200]), np.array([-1e200])) == math.inf
        assert metrics.rmse(np.array([1e200]), np.array([-1e200])) == math.inf

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            metrics.mse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            metrics.rmse([], [])

    def test_nonnegative_and_definite(self):
        rng = np.random.default_rng(4)
        pred = rng.normal(size=50)
        y = pred + rng.normal(size=50) * 1e-3
        assert metrics.rmse(pred, y) > 0.0
