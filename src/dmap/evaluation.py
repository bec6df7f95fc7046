"""Metrics for zero-shot predictions: per-class (macro) accuracy, top-k
accuracy, and confusion matrices.

The headline number is the unweighted mean of per-class accuracies over
the classes present in the ground truth — in the generalised setting the
candidate list additionally contains seen classes, but test instances
belong to unseen classes only, so the mean is still taken over those.
Instance-weighted (micro) top-k accuracy is reported alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import _class_codes, as_array
from .errors import MissingInstance, UnknownClass, ValidationError
from .model import CZSR, GZSR, Prediction


@dataclass(frozen=True)
class EvalReport:
    """Summary of one evaluation run.

    ``per_class_accuracy`` maps each ground-truth class to its accuracy;
    ``confusion`` is candidates x candidates with rows = true classes and
    columns = predictions (rows of classes absent from the truth are
    zero).  ``top_k_accuracy`` is instance-weighted.
    """

    per_class_accuracy: Mapping
    mean_per_class_accuracy: float
    top_k_accuracy: Mapping[int, float]
    confusion: np.ndarray
    candidate_ids: tuple
    mode: str

    def __post_init__(self):
        object.__setattr__(self, "per_class_accuracy", dict(self.per_class_accuracy))
        object.__setattr__(self, "top_k_accuracy",
                           {int(k): float(v) for k, v in self.top_k_accuracy.items()})
        confusion = np.array(self.confusion, dtype=np.int64, copy=True)
        confusion.setflags(write=False)
        object.__setattr__(self, "confusion", confusion)
        object.__setattr__(self, "candidate_ids", tuple(self.candidate_ids))


def evaluate(prediction: Prediction, ground_truth: Sequence,
             mode: str | None = None, ks: Sequence[int] = (1,)) -> EvalReport:
    """Score a prediction against per-instance ground-truth classes.

    Parameters
    ----------
    prediction : Prediction
        Must cover exactly the ground-truth instances (same order).
    ground_truth : sequence
        True class of each instance; every class must appear among the
        prediction's candidates.
    mode : str, optional
        ``"czsr"`` or ``"gzsr"``; recorded in the report.  Defaults to
        ``czsr``.
    ks : sequence of int
        Cutoffs for top-k accuracy.  An instance counts as top-k correct
        when its true class is among the k highest-scoring candidates,
        with score ties resolved toward the lower candidate index.

    Raises
    ------
    MissingInstance
        If the instance counts disagree.
    UnknownClass
        If a ground-truth or predicted class is not a candidate.
    """
    mode = CZSR if mode is None else mode
    if mode not in (CZSR, GZSR):
        raise ValidationError(f"mode must be {CZSR!r} or {GZSR!r}, got {mode!r}")
    truth = tuple(ground_truth)
    if len(truth) != len(prediction.instance_ids):
        raise MissingInstance(
            f"prediction covers {len(prediction.instance_ids)} instances, "
            f"ground truth has {len(truth)}"
        )
    candidates = prediction.candidate_ids
    true_idx = _class_codes(truth, candidates)
    pred_idx = _class_codes(prediction.predicted_class, candidates)
    for what, ids, idx in (("ground-truth", truth, true_idx),
                           ("predicted", prediction.predicted_class, pred_idx)):
        if (idx < 0).any():
            bad = sorted({ids[i] for i in np.flatnonzero(idx < 0)}, key=repr)
            raise UnknownClass(f"{what} classes missing from candidates: {bad}")

    scores = as_array(prediction.score_matrix)
    c = len(candidates)

    confusion = np.zeros((c, c), dtype=np.int64)
    np.add.at(confusion, (true_idx, pred_idx), 1)

    present = np.unique(true_idx)
    per_class = {}
    for j in present:
        total = confusion[j].sum()
        per_class[candidates[j]] = float(confusion[j, j] / total)
    mean_acc = float(np.mean([per_class[candidates[j]] for j in present]))

    # Rank of the true class among scores, ties toward lower index: the
    # true class is beaten by candidates with a strictly higher score or
    # an equal score at a lower index.
    top_k = {}
    ks = sorted({int(k) for k in ks})
    if any(k < 1 for k in ks):
        raise ValidationError("top-k cutoffs must be >= 1")
    true_scores = scores[true_idx, np.arange(len(truth))]
    lower_index = np.arange(c)[:, None] < true_idx
    ranks = np.sum((scores > true_scores) | ((scores == true_scores) & lower_index), axis=0)
    for k in ks:
        top_k[k] = float(np.mean(ranks < k))

    return EvalReport(
        per_class_accuracy=per_class,
        mean_per_class_accuracy=mean_acc,
        top_k_accuracy=top_k,
        confusion=confusion,
        candidate_ids=candidates,
        mode=mode,
    )
