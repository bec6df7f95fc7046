"""Tests for the evaluation metrics: per-class (macro) accuracy, top-k,
and confusion matrices, checked against hand counts and a brute-force
tally oracle.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dmap.errors import MissingInstance, UnknownClass, ValidationError
from dmap.evaluation import evaluate
from dmap.model import GZSR, Prediction


def make_prediction(scores, candidate_ids, instance_ids=None):
    """Prediction with the argmax decision rule (ties to lower index)."""
    scores = np.asarray(scores, dtype=np.float64)
    if instance_ids is None:
        instance_ids = tuple(f"x{i}" for i in range(scores.shape[1]))
    winners = np.argmax(scores, axis=0)
    return Prediction(
        instance_ids=instance_ids,
        predicted_class=tuple(candidate_ids[j] for j in winners),
        score_matrix=scores,
        candidate_ids=tuple(candidate_ids),
    )


def tally_oracle(predicted, truth, candidates):
    """Dict-based per-class accuracy and confusion counts."""
    correct = {c: 0 for c in candidates}
    total = {c: 0 for c in candidates}
    confusion = {(a, b): 0 for a in candidates for b in candidates}
    for p, t in zip(predicted, truth):
        total[t] += 1
        correct[t] += p == t
        confusion[(t, p)] += 1
    per_class = {c: correct[c] / total[c] for c in candidates if total[c]}
    return per_class, confusion


class TestHandCounts:
    def test_all_correct(self):
        scores = np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
        pred = make_prediction(scores, ("a", "b", "c"))
        report = evaluate(pred, ("a", "b", "c"))
        assert report.mean_per_class_accuracy == 1.0
        assert report.per_class_accuracy == {"a": 1.0, "b": 1.0, "c": 1.0}
        assert np.array_equal(report.confusion, np.eye(3, dtype=np.int64))
        assert report.top_k_accuracy == {1: 1.0}

    def test_macro_average_ignores_class_sizes(self):
        # Class a: 3 instances, all right.  Class b: 1 instance, wrong.
        # Macro accuracy is (1.0 + 0.0) / 2 even though 3 of 4 instances
        # are correct.
        scores = np.array(
            [[1.0, 1.0, 1.0, 1.0],
             [0.0, 0.0, 0.0, 0.0]]
        )
        pred = make_prediction(scores, ("a", "b"))
        report = evaluate(pred, ("a", "a", "a", "b"))
        assert report.per_class_accuracy == {"a": 1.0, "b": 0.0}
        assert report.mean_per_class_accuracy == 0.5
        # micro top-1 counts instances: 3/4
        assert report.top_k_accuracy[1] == 0.75

    def test_confusion_layout_rows_truth_columns_predicted(self):
        scores = np.array(
            [[1.0, 0.0, 1.0],
             [0.0, 1.0, 0.0]]
        )
        pred = make_prediction(scores, ("a", "b"))
        # truths: a (pred a), a (pred b), b (pred a)
        report = evaluate(pred, ("a", "a", "b"))
        assert report.confusion[0, 0] == 1  # a -> a
        assert report.confusion[0, 1] == 1  # a -> b
        assert report.confusion[1, 0] == 1  # b -> a
        assert report.confusion[1, 1] == 0
        assert report.confusion.sum() == 3

    def test_top1_is_trace_over_total(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=(4, 60))
        candidates = ("a", "b", "c", "d")
        truth = tuple(candidates[j] for j in rng.integers(0, 4, size=60))
        pred = make_prediction(scores, candidates)
        report = evaluate(pred, truth)
        assert report.top_k_accuracy[1] == pytest.approx(
            np.trace(report.confusion) / report.confusion.sum()
        )

    def test_topk_rank_tie_goes_to_lower_index(self):
        scores = np.array([[1.0], [1.0]])
        pred = make_prediction(scores, ("a", "b"))
        # truth "b" scores equal to "a" but sits at the higher index, so
        # its rank is 1: not top-1, but top-2.
        report = evaluate(pred, ("b",), ks=(1, 2))
        assert report.top_k_accuracy == {1: 0.0, 2: 1.0}
        # truth "a" wins the same tie
        report = evaluate(pred, ("a",), ks=(1, 2))
        assert report.top_k_accuracy == {1: 1.0, 2: 1.0}

    def test_topk_non_decreasing_in_k(self):
        rng = np.random.default_rng(11)
        scores = rng.normal(size=(6, 40))
        candidates = tuple("abcdef")
        truth = tuple(candidates[j] for j in rng.integers(0, 6, size=40))
        report = evaluate(make_prediction(scores, candidates), truth,
                          ks=(1, 2, 3, 4, 5, 6))
        accs = [report.top_k_accuracy[k] for k in (1, 2, 3, 4, 5, 6)]
        assert all(a <= b for a, b in zip(accs, accs[1:]))
        assert accs[-1] == 1.0  # k = all candidates always hits

    def test_absent_candidate_classes_are_not_averaged(self):
        # Candidates include "c" but no ground-truth instance has it:
        # macro accuracy averages over a and b only, and c's confusion
        # row stays zero.
        scores = np.array(
            [[1.0, 0.0],
             [0.0, 1.0],
             [0.0, 0.0]]
        )
        pred = make_prediction(scores, ("a", "b", "c"))
        report = evaluate(pred, ("a", "b"))
        assert set(report.per_class_accuracy) == {"a", "b"}
        assert report.mean_per_class_accuracy == 1.0
        assert report.confusion[2].sum() == 0


class TestOracle:
    def test_matches_tally_oracle(self):
        rng = np.random.default_rng(99)
        candidates = tuple(f"c{j}" for j in range(7))
        scores = rng.normal(size=(7, 200))
        truth = tuple(candidates[j] for j in rng.integers(0, 7, size=200))
        pred = make_prediction(scores, candidates)
        report = evaluate(pred, truth)

        per_class, confusion = tally_oracle(pred.predicted_class, truth, candidates)
        assert report.per_class_accuracy == pytest.approx(per_class)
        assert report.mean_per_class_accuracy == pytest.approx(
            np.mean(list(per_class.values()))
        )
        for i, a in enumerate(candidates):
            for j, b in enumerate(candidates):
                assert report.confusion[i, j] == confusion[(a, b)]

    def test_instance_order_invariance(self):
        rng = np.random.default_rng(3)
        candidates = ("a", "b", "c")
        scores = rng.normal(size=(3, 30))
        truth = tuple(candidates[j] for j in rng.integers(0, 3, size=30))
        pred = make_prediction(scores, candidates)
        base = evaluate(pred, truth, ks=(1, 2))

        perm = rng.permutation(30)
        pred_p = Prediction(
            instance_ids=tuple(pred.instance_ids[i] for i in perm),
            predicted_class=tuple(pred.predicted_class[i] for i in perm),
            score_matrix=scores[:, perm],
            candidate_ids=candidates,
        )
        shuffled = evaluate(pred_p, tuple(truth[i] for i in perm), ks=(1, 2))
        assert shuffled.per_class_accuracy == base.per_class_accuracy
        assert shuffled.mean_per_class_accuracy == base.mean_per_class_accuracy
        assert shuffled.top_k_accuracy == base.top_k_accuracy
        assert np.array_equal(shuffled.confusion, base.confusion)

    @given(st.integers(0, 2_000))
    def test_macro_accuracy_bounds_and_top1_consistency(self, seed):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(1, 5))
        n = int(rng.integers(1, 25))
        candidates = tuple(f"c{j}" for j in range(c))
        scores = rng.normal(size=(c, n))
        truth = tuple(candidates[j] for j in rng.integers(0, c, size=n))
        report = evaluate(make_prediction(scores, candidates), truth)
        assert 0.0 <= report.mean_per_class_accuracy <= 1.0
        # argmax decisions and rank-based top-1 implement the same rule
        micro = np.mean([
            p == t for p, t in zip(
                make_prediction(scores, candidates).predicted_class, truth
            )
        ])
        assert report.top_k_accuracy[1] == pytest.approx(float(micro))


class TestGeneralizedMode:
    def test_truth_classes_drive_the_macro_average(self):
        # Generalised candidates: two seen ("s0", "s1") plus two unseen.
        # All truths are unseen; instances drawn to s0 are errors that
        # lower the unseen per-class accuracies, and seen classes take no
        # part in the average.
        scores = np.array(
            [
                [5.0, 0.0, 0.0, 0.0],  # s0 wins instance 0
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 4.0, 0.0, 0.0],  # u0 wins instance 1
                [0.0, 0.0, 4.0, 4.0],  # u1 wins instances 2, 3
            ]
        )
        pred = make_prediction(scores, ("s0", "s1", "u0", "u1"))
        report = evaluate(pred, ("u0", "u0", "u1", "u1"), mode=GZSR)
        assert report.mode == GZSR
        assert set(report.per_class_accuracy) == {"u0", "u1"}
        assert report.per_class_accuracy["u0"] == 0.5
        assert report.per_class_accuracy["u1"] == 1.0
        assert report.mean_per_class_accuracy == 0.75
        # seen rows of the confusion stay zero; the s0 column records
        # the stolen instance
        assert report.confusion[0].sum() == 0
        assert report.confusion[2, 0] == 1


class TestValidation:
    def test_instance_count_mismatch(self):
        pred = make_prediction(np.eye(2), ("a", "b"))
        with pytest.raises(MissingInstance):
            evaluate(pred, ("a",))

    def test_unknown_truth_class(self):
        pred = make_prediction(np.eye(2), ("a", "b"))
        with pytest.raises(UnknownClass):
            evaluate(pred, ("a", "z"))

    def test_unknown_predicted_class(self):
        pred = Prediction(("a", "b"), ("x", "z"), np.zeros((2, 2)), ("x", "y"))
        with pytest.raises(UnknownClass, match="predicted classes missing from candidates: \\['z'\\]"):
            evaluate(pred, ("x", "x"))

    def test_bad_mode(self):
        pred = make_prediction(np.eye(2), ("a", "b"))
        with pytest.raises(ValidationError):
            evaluate(pred, ("a", "b"), mode="both")

    def test_bad_k(self):
        pred = make_prediction(np.eye(2), ("a", "b"))
        with pytest.raises(ValidationError):
            evaluate(pred, ("a", "b"), ks=(0,))

    def test_report_freezes_confusion(self):
        pred = make_prediction(np.eye(2), ("a", "b"))
        report = evaluate(pred, ("a", "b"))
        with pytest.raises(ValueError):
            report.confusion[0, 0] = 7
