"""The dual-path zero-shot recogniser: training with iterative prototype
refinement, plus inductive and transductive inference.

Training (two mapping paths)
----------------------------
1. Learn ``f_s`` mapping features into the given semantic space ``K_s``
   by the closed-form ridge solve.
2. Build a second, feature-homogeneous embedding space ``K~_s``: the
   column for each seen class is the average of the ``m`` training
   features whose ``f_s`` predictions fall nearest the class embedding.
3. Alternate — learn ``f~_s`` against ``K~_s``, then rebuild ``K~_s``
   from the new predictions — until the prototypes stop moving or the
   iteration cap is hit.

Inference
---------
*Inductive*: score every candidate class by the inner product
``<f_s(x), k_c>`` and take the argmax.

*Transductive*: the whole test batch is used to build unseen-class
prototypes ``K~_u`` in feature space (the "jump-start"): iteration 1
anchors at the given unseen embeddings and searches among ``f_s``
predictions; later iterations re-anchor at the current prototypes and
search among ``f~_s`` predictions.  Scoring always uses
``<f~_s(x), k~_c>``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields

import numpy as np

from .core import (
    EmbeddingMatrix,
    FeatureMatrix,
    LabeledDataset,
    _class_ids,
    _finite_result,
    _freeze,
    _relative_gap,
    _require_finite,
    _require_matrices,
    as_array,
    build_label_matrix,
    center_columns,
    check_field_types,
    default_instance_ids,
    l2_normalize_columns,
)
from .errors import DimensionMismatch, EmptyTestSet, ValidationError
from .linmap import predict_semantic, ridge_feature_side, solve_ridge_map

logger = logging.getLogger(__name__)

CZSR = "czsr"
GZSR = "gzsr"

#: Default ridge regularisers, the midpoints (in log space) of the ranges
#: that work well for CNN features with attribute/word-vector embeddings.
DEFAULT_GAMMA = 10.0 ** 1.35
DEFAULT_ETA = 10.0 ** 4.8


def _check_mode(mode):
    """``mode`` itself, or ``ValidationError`` unless it is ``czsr`` or ``gzsr``."""
    if mode not in (CZSR, GZSR):
        raise ValidationError(f"mode must be {CZSR!r} or {GZSR!r}, got {mode!r}")
    return mode


def _setting(default, help_text: str, **metadata):
    """A ``DmapConfig`` field with the ``help`` of its flag and ``metadata``."""
    return field(default=default, metadata={"help": help_text, **metadata})


@dataclass(frozen=True)
class DmapConfig:
    """Hyper-parameters for training and inference.

    Each field is the one description of its setting.  Its metadata holds
    its flag's ``help``; ``key``, the flag and run-config key when they are
    not the field's name; ``choices``; and ``trained``, set on the fields a
    model is fit with (:data:`TRAINED_FIELDS`).
    """

    m: int = _setting(100, "neighbours averaged into each prototype")
    lam: float = _setting(1e-4, "relationship-extraction ridge regulariser (consistency "
                          "diagnostics)", key="lambda")
    gamma: float = _setting(DEFAULT_GAMMA, "feature-side ridge regulariser", trained=True)
    eta: float = _setting(DEFAULT_ETA, "embedding-side ridge regulariser", trained=True)
    train_max_iter: int = _setting(2, "training refinement rounds after the initial "
                                   "prototypes; 0 keeps them", trained=True)
    test_max_iter: int = _setting(2, "transductive refinement rounds")
    convergence_tol: float = _setting(1e-4, "relative Frobenius change of the prototypes "
                                      "below which refinement stops", trained=True)
    mode: str = _setting(CZSR, "candidate set: unseen only (czsr) or seen and unseen (gzsr)",
                         choices=(CZSR, GZSR))
    normalize: bool = _setting(False, "l2-normalise feature and embedding columns", trained=True)
    center: bool = _setting(False, "subtract the training-feature mean (stored on the model)",
                            trained=True)

    def __post_init__(self):
        check_field_types(self)
        if self.m < 1:
            raise ValidationError("m must be at least 1")
        if self.lam < 0 or self.gamma < 0 or self.eta < 0:
            raise ValidationError("regularisers must be nonnegative")
        if self.train_max_iter < 0 or self.test_max_iter < 0:
            raise ValidationError("iteration caps must be nonnegative")
        if self.convergence_tol <= 0:
            raise ValidationError("convergence_tol must be positive")
        _check_mode(self.mode)


#: The ``DmapConfig`` fields a trained model's maps and prototypes were fit
#: with; the others only act at inference time.
TRAINED_FIELDS = tuple(f.name for f in fields(DmapConfig) if f.metadata.get("trained"))


@dataclass(frozen=True)
class DmapModel:
    """Trained dual-path model.

    ``f_s`` (d x p) maps features to the given semantic space and
    ``f_tilde`` (d x d) to the constructed space, both read-only arrays
    ``V`` of maps ``f(x) = V^T x`` fit with ``config.gamma`` and
    ``config.eta``; ``k_tilde_s`` is the ``EmbeddingMatrix`` of the
    refined seen-class prototypes in feature dimension (``d x k``).
    ``feature_mean``, the ``d``-vector of training-feature means, is
    present exactly when ``config.center`` is set, so the identical shift
    is applied at test time; ``ValidationError`` otherwise.  The model
    holds its arrays read-only: a writable array given for one is copied.
    """

    f_s: np.ndarray
    f_tilde: np.ndarray
    k_tilde_s: EmbeddingMatrix
    train_iterations_run: int
    config: DmapConfig
    feature_mean: np.ndarray | None = None

    def __post_init__(self):
        for name in ("f_s", "f_tilde", "feature_mean"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _freeze(getattr(self, name)))
        if self.f_tilde.shape[1] != self.k_tilde_s.data.shape[0]:
            raise ValidationError(
                f"second path maps into dim {self.f_tilde.shape[1]} but refined prototypes "
                f"have dim {self.k_tilde_s.data.shape[0]}"
            )
        if (self.feature_mean is not None) is not self.config.center:
            raise ValidationError(f"a model with center={self.config.center} "
                                  f"{'needs' if self.config.center else 'takes no'} feature_mean")
        if self.config.center and np.shape(self.feature_mean) != self.f_s.shape[:1]:
            raise ValidationError(f"feature_mean of shape {np.shape(self.feature_mean)} for "
                                  f"f_s with {self.f_s.shape[0]} rows")


@dataclass(frozen=True)
class Prediction:
    """Per-instance decisions plus the full score table that produced them."""

    instance_ids: tuple
    predicted_class: tuple
    score_matrix: np.ndarray  # candidates x instances
    candidate_ids: tuple

    def __post_init__(self):
        scores = np.atleast_2d(as_array(self.score_matrix))
        object.__setattr__(self, "instance_ids", tuple(self.instance_ids))
        object.__setattr__(self, "predicted_class", tuple(self.predicted_class))
        object.__setattr__(self, "candidate_ids", tuple(self.candidate_ids))
        scores = scores.copy()
        scores.setflags(write=False)
        object.__setattr__(self, "score_matrix", scores)
        if scores.shape != (len(self.candidate_ids), len(self.instance_ids)):
            raise DimensionMismatch(
                f"score matrix {scores.shape} does not match "
                f"{len(self.candidate_ids)} candidates x {len(self.instance_ids)} instances"
            )


def knn_prototype(class_anchor, predictions, features, m: int, *,
                  search=None) -> np.ndarray:
    """Average the features whose predictions are nearest a class anchor.

    Neighbours are found by Euclidean distance between ``class_anchor``
    and the columns of ``predictions``; the returned vector is the
    arithmetic mean of the *corresponding* columns of ``features`` —
    search happens in the prediction space, averaging in feature space.

    Ties in distance are broken toward the lower instance index, and
    ``m`` larger than the instance count is clamped (with a warning); an
    ``m`` that is not an integer, ``bool`` included, is refused.
    ``search`` is this anchor's ``(keys, band half-width)`` from
    :func:`_search_keys`; :func:`_refine_prototypes` passes it so that one
    GEMM serves every anchor.  Without it the keys are computed here.
    """
    anchor = np.asarray(as_array(class_anchor), dtype=np.float64).reshape(-1)
    P, X, m = _search_inputs(anchor[:, None], predictions, features, m)
    if search is None:
        keys, widths = _search_keys(anchor[:, None], P)
        search = keys[0], widths[0]
    # Average in ascending index order so the result depends only on the
    # selected *set* (float summation is order-sensitive); in particular
    # m = n reproduces the plain column mean bit for bit.
    return X[:, _nearest_columns(anchor, P, m, *search)].mean(axis=1)


def _refine_prototypes(anchors, predictions, features, m: int) -> np.ndarray:
    """One prototype per anchor column: :func:`knn_prototype` for each
    anchor, with the keys of all anchors from one GEMM.

    Unlike :func:`knn_prototype`, raises ``NumericalError`` when a search
    key, its band half-width or a prototype is not finite."""
    A = np.asarray(as_array(anchors), dtype=np.float64)
    P, X, m = _search_inputs(A, predictions, features, m)
    with np.errstate(over="ignore", invalid="ignore"):
        keys, widths = _search_keys(A, P)
        _finite_result(keys, "search keys")
        _finite_result(widths, "search-key error bounds")
        return _finite_result(
            np.stack([knn_prototype(a, P, X, m, search=(key, width))
                      for a, key, width in zip(A.T, keys, widths)], axis=1),
            "prototypes")


def _search_inputs(A: np.ndarray, predictions, features, m: int):
    """Checked ``(P, X, m)`` for a search of ``predictions`` around the
    columns of ``A``: ``P`` row-major, as the reference distance sums run
    row by row, and ``m`` an integer clamped to the instance count."""
    P = np.ascontiguousarray(as_array(predictions))
    X = as_array(features)
    if P.ndim != 2 or X.ndim != 2:
        _require_matrices(predictions=P, features=X)
    if P.shape[0] != A.shape[0]:
        raise DimensionMismatch(
            f"anchor has dim {A.shape[0]} but predictions have dim {P.shape[0]}"
        )
    if P.shape[1] != X.shape[1]:
        raise DimensionMismatch(
            f"{P.shape[1]} predictions for {X.shape[1]} feature columns"
        )
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool):
        raise ValidationError(f"m must be an integer, got {m!r}")
    if m < 1:
        raise ValidationError("m must be at least 1")
    n = P.shape[1]
    if n == 0:
        raise ValidationError("no instances to search")
    if m > n:
        logger.warning("m=%d exceeds the %d available instances; clamping", m, n)
        m = n
    return P, X, m


def _search_keys(A: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keys ``|p|^2 - 2 a.p`` of every (column of ``A``, column of ``P``)
    pair from one GEMM, one row per anchor, and each row's band
    half-width from :func:`_key_error_bound`."""
    p_sq = np.einsum("ij,ij->j", P, P)
    keys = A.T @ P
    keys *= -2.0
    keys += p_sq
    return keys, _key_error_bound(A, p_sq)


def _nearest_columns(a: np.ndarray, P: np.ndarray, m: int, key: np.ndarray,
                     width: float) -> np.ndarray:
    """Ascending indices of the ``m`` columns of ``P`` nearest ``a``
    (``1 <= m <= n``), ties going to the lower index.

    The selection equals a stable argsort of ``np.sum(diff * diff,
    axis=0)``, ``diff = P - a``, without forming ``diff``: columns whose
    key lies more than ``width`` below the m-th key are selected, those
    more than it above are not, and only the columns in that band get
    their distances recomputed with the formula above.
    """
    mth = np.partition(key, m - 1)[m - 1]
    below = key < mth - width
    first = np.flatnonzero(below)
    # Negated comparisons put a NaN key in the band, and the whole row
    # when the width is NaN or infinite.
    edge = np.flatnonzero(~below & ~(key > mth + width))
    need = m - first.size
    # need >= 1, so a recomputed band has two or more columns and its
    # sums run row by row as in the reference (one column would be
    # summed pairwise, to other bits).
    if need < edge.size:
        diff = P.take(edge, axis=1) - a[:, None]
        edge = edge[np.argsort(np.sum(diff * diff, axis=0), kind="stable")[:need]]
    return np.sort(np.concatenate([first, edge]))


def _key_error_bound(A: np.ndarray, p_sq: np.ndarray) -> np.ndarray:
    """Band half-width per anchor around the m-th key.

    The GEMM key and the reference distance minus ``|a|^2`` each differ
    from the exact value by at most about ``(dim + 2) * eps * (|a|^2 +
    |p|^2)``, whatever the summation order.  A column whose key lies more
    than twice their sum below the m-th key is then among the m nearest
    in the reference order too, and one that lies as far above it is
    not.  The factor 8 leaves room for the rounding of the threshold
    itself, ``tiny`` for gradual underflow.  Non-finite inputs give a
    non-finite width, so the whole row is recomputed.
    """
    finfo = np.finfo(np.float64)
    scale = np.einsum("ij,ij->j", A, A) + p_sq.max()
    return 8.0 * (A.shape[0] + 4) * (finfo.eps * scale + finfo.tiny)


def _prepare_features(X: np.ndarray, config: DmapConfig,
                      mean: np.ndarray | None) -> tuple[np.ndarray, np.ndarray | None]:
    if config.center:
        X, mean = center_columns(X, mean)
    if config.normalize:
        X = l2_normalize_columns(X)
    return X, mean


def _span_projection(T: np.ndarray, X: np.ndarray):
    """``(project, W)`` such that ``predict_semantic(project(V), W)`` is
    ``V^T X`` for every map ``V`` whose columns lie in span(T), as those
    of every map fit with the feature side ``T`` (``d x k``) do.

    With ``Q`` the reduced QR factor of ``T``, ``W = Q^T X`` (``k x n``)
    and ``project(V) = Q^T V``: ``Q Q^T V = V``, so the predictions are
    those of ``V`` to rounding, for ``2 k (d + n)`` flops per predicted
    row instead of ``2 d n``.  Where that is no saving, ``k (d + n) >= d n``
    (``k >= d`` among others), ``project`` keeps ``V`` and ``W`` is ``X``.
    """
    (d, k), n = T.shape, X.shape[1]
    if k * (d + n) >= d * n:
        return (lambda V: V), X
    Q = np.linalg.qr(T)[0]
    return (lambda V: Q.T @ V), Q.T @ X


def train(dataset: LabeledDataset, config: DmapConfig) -> DmapModel:
    """Fit both mapping paths and the refined seen-class prototypes.

    Steps: learn ``f_s`` against the seen embeddings; construct the
    refined prototypes ``K~_s`` from its predictions; then up to
    ``train_max_iter`` times re-learn ``f~_s`` against the current
    prototypes and rebuild the prototypes from its predictions, stopping
    early once the relative Frobenius change of ``K~_s`` falls below
    ``convergence_tol``.  The returned ``f~_s`` is always fit against
    the final prototypes.

    The searches read each map's predictions in the coordinates of
    :func:`_span_projection` when those take fewer flops; the maps
    themselves are the dense ``solve_ridge_map`` results either way.
    """
    X, feature_mean = _prepare_features(dataset.features.data, config, None)
    K_seen = dataset.semantic.subset(dataset.split.seen).data
    if config.normalize:
        K_seen = l2_normalize_columns(K_seen)
    Y = build_label_matrix(dataset.labels, dataset.split.seen)

    # Every map below shares X, Y and gamma, so they share the feature side,
    # and each is T times an embedding-side factor, so it predicts from W.
    T = ridge_feature_side(X, Y, config.gamma)
    project, W = _span_projection(T, X)
    f_s = solve_ridge_map(X, K_seen, Y, config.gamma, config.eta, feature_side=T)
    k_tilde = _refine_prototypes(K_seen, predict_semantic(project(f_s), W), X, config.m)

    # No round keeps its map or its predictions (d x d and d x n when the
    # prototypes are d-dimensional) past the search that reads them, and a
    # projected round drops its d x d map before its predictions form.
    iterations_run = 0
    for _ in range(config.train_max_iter):
        mapped = project(solve_ridge_map(X, k_tilde, Y, config.gamma, config.eta,
                                         feature_side=T))
        refined = _refine_prototypes(k_tilde, predict_semantic(mapped, W), X, config.m)
        del mapped
        delta = _relative_gap(refined, k_tilde)
        k_tilde = refined
        iterations_run += 1
        if delta < config.convergence_tol:
            break
    f_tilde = solve_ridge_map(X, k_tilde, Y, config.gamma, config.eta, feature_side=T)

    return DmapModel(
        f_s=f_s,
        f_tilde=f_tilde,
        k_tilde_s=EmbeddingMatrix(k_tilde, dataset.split.seen),
        train_iterations_run=iterations_run,
        config=config,
        feature_mean=feature_mean,
    )


def _score_and_predict(candidates: np.ndarray, candidate_ids: tuple,
                       predictions: np.ndarray, instance_ids: tuple) -> Prediction:
    """Inner-product scores; argmax ties resolve to the lower candidate index.
    Non-finite scores raise ``NumericalError``."""
    with np.errstate(over="ignore", invalid="ignore"):
        scores = _finite_result(candidates.T @ predictions, "scores")
    winners = np.argmax(scores, axis=0)
    return Prediction(
        instance_ids=instance_ids,
        predicted_class=tuple(candidate_ids[j] for j in winners),
        score_matrix=scores,
        candidate_ids=candidate_ids,
    )


def _input_matrix(x, what: str) -> np.ndarray:
    """The array of a ``FeatureMatrix`` or ``EmbeddingMatrix``, checked when
    it was built, or of any other input, checked here: ``ValidationError``
    naming it as ``what`` unless it is a 2-D matrix of finite values."""
    if isinstance(x, (FeatureMatrix, EmbeddingMatrix)):
        return x.data
    a = as_array(x)
    if a.ndim != 2:
        raise ValidationError(f"{what} must be 2-D, got shape {a.shape}")
    _require_finite(a, what)
    return a


def _candidates(mode: str, unseen, seen) -> tuple[np.ndarray, tuple]:
    """Candidate matrix and ids under ``mode``: the unseen classes
    (``czsr``), or the seen followed by the unseen (``gzsr``)."""
    Ku = _input_matrix(unseen, "unseen embedding matrix")
    if mode == CZSR:
        return Ku, _class_ids(unseen, "u")
    if seen is None:
        raise ValidationError("gzsr inference needs the seen embeddings")
    Ks = _input_matrix(seen, "seen embedding matrix")
    if Ks.shape[0] != Ku.shape[0]:
        raise DimensionMismatch(
            f"seen embeddings have dim {Ks.shape[0]}, unseen have dim {Ku.shape[0]}"
        )
    return (np.concatenate([Ks, Ku], axis=1),
            _class_ids(seen, "s") + _class_ids(unseen, "u"))


def _test_side(model: DmapModel, X_test, mode: str, unseen, seen=None):
    """The set-up that inductive and transductive inference share:
    ``(X, instance_ids, K, class_ids, P)``, the test features prepared as in
    training, the :func:`_candidates` (L2-normalised when the model
    normalises) and the ``f_s`` predictions ``P``.  Raises ``EmptyTestSet``
    for a batch without instances and ``DimensionMismatch`` unless ``f_s``
    maps into the dimension of ``K``."""
    K, class_ids = _candidates(mode, unseen, seen)
    X = _input_matrix(X_test, "test feature matrix")
    if X.shape[1] < 1:
        raise EmptyTestSet("no test instances")
    instance_ids = (X_test.instance_ids if isinstance(X_test, FeatureMatrix)
                    else default_instance_ids(X.shape[1]))
    X, _ = _prepare_features(X, model.config, model.feature_mean)
    if model.config.normalize:
        K = l2_normalize_columns(K)
    preds = predict_semantic(model.f_s, X)
    if K.shape[0] != preds.shape[0]:
        raise DimensionMismatch(
            f"candidate embeddings have dim {K.shape[0]} but f_s produces dim {preds.shape[0]}"
        )
    return X, instance_ids, K, class_ids, preds


def infer_inductive(model: DmapModel, X_test, K_unseen, K_seen=None) -> Prediction:
    """Classify by inner product between ``f_s`` predictions and embeddings.

    Candidates under ``model.config.mode`` are the unseen classes alone
    (``czsr``) or seen followed by unseen (``gzsr``, which requires ``K_seen``).
    """
    _, instance_ids, candidates, candidate_ids, preds = _test_side(
        model, X_test, model.config.mode, K_unseen, K_seen)
    return _score_and_predict(candidates, candidate_ids, preds, instance_ids)


def transductive_rounds(model: DmapModel, X_test, K_unseen):
    """Yield ``(Prediction, EmbeddingMatrix)`` after each of the
    ``model.config.test_max_iter`` transductive rounds, the matrix holding
    that round's unseen prototypes ``K~_u``.

    Round 1 builds each unseen prototype from the ``m`` test features
    whose ``f_s`` predictions lie nearest the class embedding; rounds 2+
    re-anchor at the current prototypes and search among ``f~_s``
    predictions.  Each round's prototypes score the batch via
    ``<f~_s(x), k~_c>`` (against the refined seen prototypes too under
    ``gzsr``), so round ``t`` equals :func:`infer_transductive` of a model
    whose ``config.test_max_iter`` is ``t``.
    """
    # The first search anchors at the unseen embeddings alone.
    X, instance_ids, k_tilde_u, unseen_ids, search = _test_side(model, X_test, CZSR, K_unseen)
    preds_tilde = predict_semantic(model.f_tilde, X)
    for _ in range(model.config.test_max_iter):
        k_tilde_u = _refine_prototypes(k_tilde_u, search, X, model.config.m)
        search = preds_tilde
        prototypes = EmbeddingMatrix(k_tilde_u, unseen_ids)
        candidates, ids = _candidates(model.config.mode, prototypes, model.k_tilde_s)
        yield _score_and_predict(candidates, ids, preds_tilde, instance_ids), prototypes


def infer_transductive(model: DmapModel, X_test, K_unseen) -> tuple[Prediction, EmbeddingMatrix]:
    """Batch inference with transductively constructed unseen prototypes:
    the last of the ``model.config.test_max_iter`` rounds of
    :func:`transductive_rounds`, which must be at least one.

    Returns the prediction and the ``EmbeddingMatrix`` of the constructed
    unseen prototypes.
    """
    if model.config.test_max_iter < 1:
        raise ValidationError("transductive inference needs at least one iteration")
    for result in transductive_rounds(model, X_test, K_unseen):
        pass
    return result
