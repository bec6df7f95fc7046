"""Core data types shared by every module: feature and class-indexed
matrices and class splits, plus class-mean prototypes and the +-1 label
array.

Conventions
-----------
All matrices are column-major over items: a feature matrix is ``d x n``
(one column per instance) and an embedding matrix is ``dim x c`` (one
column per class).  The given semantic space ``K`` (``dim = p``) and the
prototype spaces built in feature dimension (``K~``, class means,
``dim = d``) are all ``EmbeddingMatrix``.  This single orientation is
used everywhere to avoid transposition ambiguity between modules, and
:func:`_class_codes` is the one map from class ids to columns.
Positional instance ids (``i000000`` for a plain test batch, ``tr000000``
and ``te000000`` for training and test files and synthetic worlds) all
come from :func:`default_instance_ids`, and positional class ids
(``c0000`` for an ``EmbeddingMatrix``, ``u0000``/``s0000`` for plain
unseen/seen arrays) from :func:`default_class_ids`.

All types are immutable after construction (arrays are marked
read-only), so values can be shared freely across threads.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    MissingClass,
    NumericalError,
    UnknownLabel,
    ValidationError,
)

logger = logging.getLogger(__name__)


def _freeze(a: np.ndarray) -> np.ndarray:
    """Return a float64 C-contiguous read-only copy of ``a``."""
    out = np.array(a, dtype=np.float64, order="C", copy=True)
    out.setflags(write=False)
    return out


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{what} contains non-finite entries (NaN or Inf)")


def _finite_result(a: np.ndarray, what: str) -> np.ndarray:
    """Return the computed array ``a``, or raise ``NumericalError`` if it
    overflowed to Inf or NaN.  Callers compute ``a`` under
    ``np.errstate(over="ignore", invalid="ignore")``, so this error takes
    the place of NumPy's ``RuntimeWarning``."""
    if not np.isfinite(a).all():
        raise NumericalError(f"{what} are not finite; the inputs overflow float64, "
                             "rescale them")
    return a


#: Accepted value types by dataclass field annotation.
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str, "bool": bool}


def check_field_types(config) -> None:
    """Raise ``ValidationError`` unless every field of the dataclass ``config``
    holds a value of its annotated type, finite for ``float``; ``bool`` (an
    ``int``) counts only as ``bool``."""
    for f in fields(config):
        value = getattr(config, f.name)
        if (not isinstance(value, _FIELD_TYPES[f.type])
                or (isinstance(value, bool) and f.type != "bool")):
            raise ValidationError(f"{f.name} must be of type {f.type}, got {value!r}")
        if f.type == "float" and not math.isfinite(value):
            raise ValidationError(f"{f.name} must be finite, got {value!r}")


def as_array(x) -> np.ndarray:
    """Extract the underlying matrix from a domain type, or pass arrays through.

    Every operation in this package accepts either the wrapped domain type
    (``FeatureMatrix``, ``EmbeddingMatrix``, ...) or a plain ``numpy`` array,
    which keeps scratch work and tests friction-free.
    """
    if hasattr(x, "data") and isinstance(getattr(x, "data"), np.ndarray):
        return x.data
    return np.asarray(x, dtype=np.float64)


def default_instance_ids(n: int, prefix: str = "i") -> tuple[str, ...]:
    """Positional instance identifiers ``<prefix>000000, <prefix>000001, ...``."""
    return tuple(f"{prefix}{j:06d}" for j in range(n))


def default_class_ids(n: int, prefix: str = "c") -> tuple[str, ...]:
    """Positional class identifiers ``<prefix>0000, <prefix>0001, ...``."""
    return tuple(f"{prefix}{j:04d}" for j in range(n))


def _relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Relative Frobenius gap ``||a - b|| / ||b||``, the denominator floored
    at the smallest positive normal double."""
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), np.finfo(np.float64).tiny))


def _init_columns(matrix, ids_field: str, default_ids, what: str, axes: str, columns: str):
    """Check and store ``matrix.data`` (read-only float64, 2-D, non-empty,
    finite) and its column ids, field ``ids_field``: one unique id per
    column, ``default_ids(n)`` when omitted."""
    data = _freeze(np.atleast_2d(as_array(matrix.data)))
    if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
        raise ValidationError(f"{what} must be 2-D with {axes} >= 1, got shape {data.shape}")
    _require_finite(data, what)
    ids = getattr(matrix, ids_field)
    ids = tuple(default_ids(data.shape[1]) if ids is None else ids)
    noun = ids_field.replace("_", " ")  # "instance ids", "class ids"
    if len(ids) != data.shape[1]:
        raise ValidationError(f"{len(ids)} {noun} for {data.shape[1]} {columns}")
    if len(set(ids)) != len(ids):
        raise ValidationError(f"{noun} are not unique")
    object.__setattr__(matrix, "data", data)
    object.__setattr__(matrix, ids_field, ids)


@dataclass(frozen=True)
class FeatureMatrix:
    """A ``d x n`` collection of instance feature vectors (space X).

    Parameters
    ----------
    data : array_like, shape (d, n)
        One column per instance.
    instance_ids : sequence, optional
        Unique per-instance identifiers; positional ids are generated
        when omitted.
    """

    data: np.ndarray
    instance_ids: tuple = None  # type: ignore[assignment]

    def __post_init__(self):
        _init_columns(self, "instance_ids", default_instance_ids, "feature matrix", "d,n",
                      "instances")

    @property
    def d(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class EmbeddingMatrix:
    """A ``dim x c`` matrix with one column per class id: the semantic
    embeddings (space K) or prototypes in feature dimension (space K~).

    A column that is identically zero is almost certainly a data problem
    (it cannot separate its class from anything), but downstream guards
    keep the math well-defined, so it is reported as a warning rather
    than rejected.
    """

    data: np.ndarray
    class_ids: tuple = None  # type: ignore[assignment]

    def __post_init__(self):
        _init_columns(self, "class_ids", default_class_ids, "embedding matrix", "p,c",
                      "embedding columns")
        zero = [self.class_ids[j] for j in np.flatnonzero(~self.data.any(axis=0))]
        if zero:
            logger.warning("embedding columns are identically zero for classes: %s", zero)

    def column(self, class_id) -> np.ndarray:
        """The embedding vector of one class."""
        return self.data[:, self._columns((class_id,))[0]]

    def subset(self, class_ids: Sequence) -> "EmbeddingMatrix":
        """Columns restricted to ``class_ids``, in the given order."""
        class_ids = tuple(class_ids)
        return EmbeddingMatrix(self.data[:, self._columns(class_ids)], class_ids)

    def _columns(self, class_ids: tuple) -> np.ndarray:
        codes = _class_codes(class_ids, self.class_ids)
        if (codes < 0).any():
            missing = class_ids[int(np.argmax(codes < 0))]
            raise MissingClass(f"class {missing!r} not in embedding matrix")
        return codes


@dataclass(frozen=True)
class ClassSplit:
    """Partition of class identities into seen and unseen."""

    seen: tuple
    unseen: tuple

    def __post_init__(self):
        seen = tuple(self.seen)
        unseen = tuple(self.unseen)
        if len(seen) < 1 or len(unseen) < 1:
            raise ValidationError("both seen and unseen class lists must be non-empty")
        if len(set(seen)) != len(seen) or len(set(unseen)) != len(unseen):
            raise ValidationError("class ids within a split side must be unique")
        if set(seen) & set(unseen):
            raise ValidationError(f"seen and unseen overlap: {sorted(set(seen) & set(unseen))}")
        object.__setattr__(self, "seen", seen)
        object.__setattr__(self, "unseen", unseen)


@dataclass(frozen=True)
class LabeledDataset:
    """Training-side bundle: features, per-instance labels, split, embeddings.

    Training data carries only seen classes; the embedding matrix must
    cover every class in the split (seen and unseen) so that inference
    can look up unseen-class embeddings later.
    """

    features: FeatureMatrix
    labels: tuple
    split: ClassSplit
    semantic: EmbeddingMatrix

    def __post_init__(self):
        labels = tuple(self.labels)
        if len(labels) != self.features.n:
            raise DimensionMismatch(f"{len(labels)} labels for {self.features.n} instances")
        seen = set(self.split.seen)
        bad = sorted({lab for lab in labels if lab not in seen}, key=repr)
        if bad:
            raise UnknownLabel(f"training labels outside the seen classes: {bad}")
        missing = (set(self.split.seen) | set(self.split.unseen)) - set(self.semantic.class_ids)
        if missing:
            raise MissingClass(f"embedding matrix lacks classes: {sorted(missing, key=repr)}")
        object.__setattr__(self, "labels", labels)


def _class_codes(labels: Sequence, classes: Sequence) -> np.ndarray:
    """Column of each label among ``classes`` as an ``intp`` array, -1 for
    labels that are not in ``classes``.

    Raises
    ------
    ValidationError
        If ``classes`` repeats an id.
    """
    index = {cls: j for j, cls in enumerate(classes)}
    if len(index) != len(classes):
        raise ValidationError("class ids are not unique")
    return np.fromiter((index.get(lab, -1) for lab in labels), dtype=np.intp, count=len(labels))


def class_mean_prototypes(features, labels: Sequence, classes: Sequence) -> EmbeddingMatrix:
    """Per-class arithmetic-mean prototypes.

    Parameters
    ----------
    features : FeatureMatrix or array_like, shape (d, n)
    labels : sequence of length n
        Class identifier of each feature column.
    classes : sequence
        Classes to build prototypes for, in output column order.

    Returns
    -------
    EmbeddingMatrix
        Column ``i`` is the mean of the feature columns labelled
        ``classes[i]``; labels outside ``classes`` are ignored.

    Raises
    ------
    MissingClass
        If a requested class has no instances.
    ValidationError
        If ``classes`` repeats an id.
    """
    X = as_array(features)
    labels = tuple(labels)
    if len(labels) != X.shape[1]:
        raise DimensionMismatch(f"{len(labels)} labels for {X.shape[1]} feature columns")
    classes = tuple(classes)
    codes = _class_codes(labels, classes)
    protos = np.empty((X.shape[0], len(classes)))
    for i, cls in enumerate(classes):
        mask = codes == i
        if not mask.any():
            raise MissingClass(f"class {cls!r} has no instances")
        protos[:, i] = X[:, mask].mean(axis=1)
    return EmbeddingMatrix(protos, classes)


def _class_ids(K, prefix: str) -> tuple:
    """The class ids ``K`` carries, or positional ids ``<prefix>0000, ...``."""
    return tuple(getattr(K, "class_ids", None) or default_class_ids(as_array(K).shape[1], prefix))


def build_label_matrix(labels: Sequence, seen: Sequence) -> np.ndarray:
    """Instance-by-class ``n x k`` target array: +1 at the true class, -1 elsewhere.

    Raises
    ------
    UnknownLabel
        If any label is not among ``seen``.
    ValidationError
        If ``seen`` repeats an id.
    """
    labels, seen = tuple(labels), tuple(seen)
    codes = _class_codes(labels, seen)
    if (codes < 0).any():
        raise UnknownLabel(f"label {labels[int(np.argmax(codes < 0))]!r} is not a seen class")
    Y = -np.ones((len(labels), len(seen)))
    Y[np.arange(len(labels)), codes] = 1.0
    return Y


def l2_normalize_columns(a: np.ndarray) -> np.ndarray:
    """Scale every column to unit Euclidean norm; zero columns pass through.
    Raises ``NumericalError`` when a nonzero column's norm overflows or
    underflows to 0.

    A column whose sum of squares is subnormal lost bits to underflow, so
    it is first divided by its largest magnitude; other columns are not,
    which keeps their bytes."""
    arr = np.array(as_array(a), copy=True)
    nz = arr.any(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = _finite_result(np.linalg.norm(arr, axis=0), "column norms")
    if not norms[nz].all():
        raise NumericalError("column norms underflow to 0; rescale the inputs")
    subnormal = nz & (norms * norms < np.finfo(np.float64).tiny)
    if subnormal.any():
        arr[:, subnormal] /= np.abs(arr[:, subnormal]).max(axis=0)
        norms[subnormal] = np.linalg.norm(arr[:, subnormal], axis=0)
    arr[:, nz] /= norms[nz]
    return arr


def center_columns(a: np.ndarray, mean: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Subtract a per-row mean vector from every column.

    When ``mean`` is omitted it is computed from ``a`` itself (training
    usage); pass a stored mean to reproduce the same shift at test time.

    Returns
    -------
    (centered, mean)
    """
    arr = as_array(a)
    if mean is None:
        mean = arr.mean(axis=1)
    mean = np.asarray(mean, dtype=np.float64)
    if mean.shape != (arr.shape[0],):
        raise DimensionMismatch(f"mean of shape {mean.shape} for matrix with {arr.shape[0]} rows")
    return arr - mean[:, None], mean
