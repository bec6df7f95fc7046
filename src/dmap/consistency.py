"""Inter-class relationship extraction, the consistency measure, and
semantic-space pre-inspection.

The central objects are the relationship matrices ``R_x`` and ``R_k``:
column ``i`` of each holds the ridge coefficients expressing unseen
class ``i`` over the *seen* prototypes, computed in feature space
(``R_x``, from prototypes ``X~_s``) and in semantic space (``R_k``,
from embeddings ``K_s``).  The two manifolds are consistent when
``X~_s R_x = X~_s R_k`` — the same seen classes explain each unseen
class the same way in both spaces.

Pre-inspection checks a structural defect of the semantic space itself:
two unseen embeddings whose orthogonal projections onto span(K_s)
coincide produce identical scores under *any* linear map learned from
seen data, so no such map can tell them apart.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import (
    _class_ids,
    _finite_result,
    _freeze,
    _relative_gap,
    as_array,
    class_mean_prototypes,
)
from .errors import DimensionMismatch, SingularSystem, ValidationError
from .linmap import _require_matrices, _spd_solve

logger = logging.getLogger(__name__)

#: Norms below this are treated as degenerate in the consistency measure.
DEGENERATE_NORM = 1e-12

#: Default relative factor for the pre-inspection threshold.
RELATIVE_EPSILON = 1e-6


@dataclass(frozen=True)
class DefectReport:
    """Pairwise projection distances between unseen classes plus the
    pairs indistinguishable at the chosen threshold."""

    pairwise_distances: np.ndarray  # l x l, symmetric, zero diagonal
    flagged_pairs: tuple  # of (class_i, class_j, distance)
    epsilon: float
    class_ids: tuple

    def __post_init__(self):
        object.__setattr__(self, "pairwise_distances", _freeze(self.pairwise_distances))
        object.__setattr__(self, "flagged_pairs", tuple(self.flagged_pairs))
        object.__setattr__(self, "class_ids", tuple(self.class_ids))
        object.__setattr__(self, "epsilon", float(self.epsilon))


def build_relationship_matrix(seen_prototypes, unseen_prototypes, lam: float) -> np.ndarray:
    """The ``k x l`` relationship matrix, read-only: column ``i`` solves
    ``argmin_a ||u_i - P a||^2 + lam ||a||^2`` for the seen prototypes ``P``
    (``dim x k``), ``a = (P^T P + lam I)^-1 P^T u_i``, with one
    factorisation of ``P^T P + lam I`` for all columns.

    Raises ``ValidationError`` unless both are non-empty 2-D matrices, and
    ``SingularSystem`` when ``lam = 0`` and ``P^T P`` is singular, or when
    the Gram matrix or the right-hand side overflows.
    """
    P = as_array(seen_prototypes)
    U = as_array(unseen_prototypes)
    _require_matrices(seen_prototypes=P, unseen_prototypes=U)
    if P.shape[0] != U.shape[0]:
        raise DimensionMismatch(
            f"seen prototypes have dim {P.shape[0]}, unseen have dim {U.shape[0]}"
        )
    if lam < 0:
        raise ValidationError("lambda must be nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        gram = P.T @ P + lam * np.eye(P.shape[1])
        # One matrix-vector product per column: the GEMM P.T @ U rounds differently.
        rhs = np.matmul(P.T, U.T[:, :, None])[:, :, 0].T
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(rhs))):
        raise SingularSystem("relationship system has non-finite entries; rescale the inputs")
    return _freeze(_spd_solve(gram, rhs, f"seen-prototype Gram is singular with lambda={lam}"))


def _relationship_images(seen_prototypes, R_x, R_k) -> tuple[np.ndarray, np.ndarray]:
    """``(X~_s R_x, X~_s R_k)`` after checking that each is a non-empty 2-D
    matrix and that the shapes agree; the caller computes under
    ``np.errstate`` and checks what it derives."""
    P = as_array(seen_prototypes)
    Rx, Rk = as_array(R_x), as_array(R_k)
    _require_matrices(seen_prototypes=P, R_x=Rx, R_k=Rk)
    if Rx.shape != Rk.shape:
        raise DimensionMismatch(f"relationship shapes differ: {Rx.shape} vs {Rk.shape}")
    if P.shape[1] != Rx.shape[0]:
        raise DimensionMismatch(
            f"{P.shape[1]} seen prototypes but relationship matrices have {Rx.shape[0]} rows"
        )
    return P @ Rx, P @ Rk


def consistency_measure(seen_prototypes, R_x, R_k) -> float:
    """Scalar in (0, 1] quantifying inter-class relationship consistency.

    For each unseen class ``i`` with relationship images
    ``a_i = X~_s alpha_i`` and ``b_i = X~_s beta_i``, the per-class term is
    ``exp(-||a_i - b_i|| / (||a_i|| * ||b_i||))`` and the measure is the
    mean over unseen classes.  The denominator is the *product* of the
    two norms, exactly as defined.

    Degenerate norms (below ``1e-12``) are handled by convention: both
    degenerate gives a term of 1 (identical degenerate images), exactly
    one degenerate gives 0 (maximal inconsistency); both cases are logged.
    Raises ``ValidationError`` unless every input is a non-empty 2-D matrix,
    and ``NumericalError`` when a term is not finite, as when the images or
    their norms overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        img_x, img_k = _relationship_images(seen_prototypes, R_x, R_k)
        terms = np.empty(img_x.shape[1])
        for i in range(img_x.shape[1]):
            na = np.linalg.norm(img_x[:, i])
            nb = np.linalg.norm(img_k[:, i])
            if na < DEGENERATE_NORM and nb < DEGENERATE_NORM:
                logger.warning("consistency term %d: both images degenerate, counting as 1", i)
                terms[i] = 1.0
            elif na < DEGENERATE_NORM or nb < DEGENERATE_NORM:
                logger.warning("consistency term %d: one image degenerate, counting as 0", i)
                terms[i] = 0.0
            else:
                terms[i] = np.exp(-np.linalg.norm(img_x[:, i] - img_k[:, i]) / (na * nb))
    return float(_finite_result(terms, "consistency terms").mean())


def irc_gap(seen_prototypes, R_x, R_k) -> float:
    """Relative Frobenius gap ``||X~_s R_x - X~_s R_k|| / ||X~_s R_k||``.

    Zero exactly when the inter-class relationships agree; the
    denominator is floored at the smallest positive normal double.
    Raises ``ValidationError`` unless every input is a non-empty 2-D matrix,
    and ``NumericalError`` when the gap is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gap = _relative_gap(*_relationship_images(seen_prototypes, R_x, R_k))
    return _finite_result(gap, "irc_gap values")


def consistency_report(features, labels, split, embeddings, lam: float) -> tuple[float, float]:
    """``(cm, irc_gap)`` of the class-mean feature prototypes against the embeddings.

    ``features`` (``d x n``) and ``labels`` cover instances of the seen
    and the unseen classes of ``split``; ``embeddings`` carries the class
    ids of both.  ``R_x`` relates the unseen class means to the seen ones,
    ``R_k`` the unseen embeddings to the seen ones, both with ridge ``lam``.
    """
    seen = class_mean_prototypes(features, labels, split.seen)
    unseen = class_mean_prototypes(features, labels, split.unseen)
    R_x = build_relationship_matrix(seen, unseen, lam)
    R_k = build_relationship_matrix(embeddings.subset(split.seen),
                                    embeddings.subset(split.unseen), lam)
    return consistency_measure(seen, R_x, R_k), irc_gap(seen, R_x, R_k)


def project_onto_seen_span(K_s, K_u) -> np.ndarray:
    """Orthogonal projections ``U`` of the unseen embeddings (``p x l``, or
    one vector of length ``p``) onto the span of the seen ones; each
    ``K_u - U`` column is orthogonal to that span.

    One minimum-norm least-squares solve covers every column, so
    rank-deficient seen embeddings are handled; the projections
    themselves are unique either way.  Raises ``ValidationError`` unless
    ``K_s`` is a non-empty matrix and ``K_u`` a vector or a non-empty
    matrix.
    """
    Ks, Ku = as_array(K_s), as_array(K_u)
    if Ku.ndim == 1:
        _require_matrices(K_s=Ks)
    else:
        _require_matrices(K_s=Ks, K_u=Ku)
    if Ks.shape[0] != Ku.shape[0]:
        raise DimensionMismatch(
            f"seen embeddings have dim {Ks.shape[0]}, unseen have dim {Ku.shape[0]}"
        )
    alpha, *_ = np.linalg.lstsq(Ks, Ku, rcond=None)
    return Ks @ alpha


def preinspect(K_s, K_u, epsilon: float | None = None) -> DefectReport:
    """Scan the unseen classes for pairs a seen-trained linear map cannot separate.

    Each unseen embedding is projected onto span(K_s); the report holds
    the ``l x l`` matrix of Euclidean distances between those projections
    and flags every pair ``i < j`` with distance at most ``epsilon``.

    When ``epsilon`` is omitted it defaults to ``1e-6`` times the median
    off-diagonal distance — the flag is then scale-free.  Pass a finite,
    nonnegative absolute value to override.  The default fails when at
    least half of the pairs coincide (for example two classes that form
    one defect pair): the median is then itself rounding noise, and
    whether a pair is flagged depends on whether rounding makes its
    distance exactly 0.  Pass ``epsilon`` explicitly for such inputs.
    Classes are named by the
    ``class_ids`` of ``K_u``, or ``u0000, u0001, ...`` for a plain array.
    Raises ``NumericalError`` when a distance is not finite, as when the
    embeddings are so large that their squares overflow, and
    ``ValidationError`` unless both are non-empty matrices.
    """
    _require_matrices(K_s=as_array(K_s), K_u=as_array(K_u))
    U = project_onto_seen_span(K_s, K_u)
    if epsilon is not None and not (np.isfinite(epsilon) and epsilon >= 0):
        raise ValidationError(f"epsilon must be finite and nonnegative, got {epsilon!r}")
    class_ids = _class_ids(K_u, "u")
    l = U.shape[1]
    # One row per class: every entry is the same columnwise sum in the same
    # order, so the table is exactly symmetric with an exactly zero diagonal.
    dist = np.empty((l, l))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(l):
            dist[i] = np.linalg.norm(U - U[:, [i]], axis=0)
    _finite_result(dist, "projection distances")
    rows, cols = np.triu_indices(l, k=1)
    off_diag = dist[rows, cols]
    if epsilon is None:
        median = float(np.median(off_diag)) if off_diag.size else 0.0
        epsilon = RELATIVE_EPSILON * median
    hit = off_diag <= epsilon
    flagged = tuple(
        (class_ids[i], class_ids[j], float(d))
        for i, j, d in zip(rows[hit], cols[hit], off_diag[hit])
    )
    return DefectReport(
        pairwise_distances=dist,
        flagged_pairs=flagged,
        epsilon=float(epsilon),
        class_ids=class_ids,
    )
