"""Core data types shared by every module: feature/embedding matrices,
class splits, and class prototypes, plus the +-1 label array.

Conventions
-----------
All matrices are column-major over items: a feature matrix is ``d x n``
(one column per instance), an embedding matrix is ``p x c`` (one column
per class), and a prototype set is ``dim x c``.  This single orientation
is used everywhere to avoid transposition ambiguity between modules.

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


def default_instance_ids(n: int) -> tuple[str, ...]:
    """Positional instance identifiers ``i000000, i000001, ...``."""
    return tuple(f"i{j:06d}" for j in range(n))


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
        data = _freeze(np.atleast_2d(as_array(self.data)))
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise ValidationError(f"feature matrix must be 2-D with d,n >= 1, got shape {data.shape}")
        _require_finite(data, "feature matrix")
        ids = self.instance_ids
        if ids is None:
            ids = default_instance_ids(data.shape[1])
        ids = tuple(ids)
        if len(ids) != data.shape[1]:
            raise ValidationError(f"{len(ids)} instance ids for {data.shape[1]} instances")
        if len(set(ids)) != len(ids):
            raise ValidationError("instance ids are not unique")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "instance_ids", ids)

    @property
    def d(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class EmbeddingMatrix:
    """A ``p x c`` collection of per-class semantic embeddings (space K).

    A column that is identically zero is almost certainly a data problem
    (it cannot separate its class from anything), but downstream guards
    keep the math well-defined, so it is reported as a warning rather
    than rejected.
    """

    data: np.ndarray
    class_ids: tuple = None  # type: ignore[assignment]

    def __post_init__(self):
        data = _freeze(np.atleast_2d(as_array(self.data)))
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise ValidationError(f"embedding matrix must be 2-D with p,c >= 1, got shape {data.shape}")
        _require_finite(data, "embedding matrix")
        ids = self.class_ids
        if ids is None:
            ids = tuple(f"c{j:04d}" for j in range(data.shape[1]))
        ids = tuple(ids)
        if len(ids) != data.shape[1]:
            raise ValidationError(f"{len(ids)} class ids for {data.shape[1]} embedding columns")
        if len(set(ids)) != len(ids):
            raise ValidationError("class ids are not unique")
        zero = [ids[j] for j in range(data.shape[1]) if not np.any(data[:, j])]
        if zero:
            logger.warning("embedding columns are identically zero for classes: %s", zero)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "class_ids", ids)

    @property
    def p(self) -> int:
        return self.data.shape[0]

    def column(self, class_id) -> np.ndarray:
        """The embedding vector of one class."""
        try:
            j = self.class_ids.index(class_id)
        except ValueError:
            raise MissingClass(f"class {class_id!r} not in embedding matrix") from None
        return self.data[:, j]

    def subset(self, class_ids: Sequence) -> "EmbeddingMatrix":
        """Columns restricted to ``class_ids``, in the given order."""
        idx = []
        for cid in class_ids:
            try:
                idx.append(self.class_ids.index(cid))
            except ValueError:
                raise MissingClass(f"class {cid!r} not in embedding matrix") from None
        return EmbeddingMatrix(self.data[:, idx], tuple(class_ids))


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

    @property
    def k(self) -> int:
        return len(self.seen)

    @property
    def l(self) -> int:
        return len(self.unseen)


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


@dataclass(frozen=True)
class PrototypeSet:
    """One representative vector per class: ``dim x c`` plus class ids."""

    data: np.ndarray
    class_ids: tuple

    def __post_init__(self):
        data = _freeze(np.atleast_2d(as_array(self.data)))
        _require_finite(data, "prototype set")
        ids = tuple(self.class_ids)
        if len(ids) != data.shape[1]:
            raise ValidationError(f"{len(ids)} class ids for {data.shape[1]} prototype columns")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "class_ids", ids)


def class_mean_prototypes(features, labels: Sequence, classes: Sequence) -> PrototypeSet:
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
    PrototypeSet
        Column ``i`` is the mean of the feature columns labelled
        ``classes[i]``.

    Raises
    ------
    MissingClass
        If a requested class has no instances.
    """
    X = as_array(features)
    labels = tuple(labels)
    if len(labels) != X.shape[1]:
        raise DimensionMismatch(f"{len(labels)} labels for {X.shape[1]} feature columns")
    protos = np.empty((X.shape[0], len(classes)))
    for i, cls in enumerate(classes):
        mask = np.fromiter((lab == cls for lab in labels), dtype=bool, count=len(labels))
        if not mask.any():
            raise MissingClass(f"class {cls!r} has no instances")
        protos[:, i] = X[:, mask].mean(axis=1)
    return PrototypeSet(protos, tuple(classes))


def _class_ids(K, prefix: str) -> tuple:
    """The class ids ``K`` carries, or positional ids ``<prefix>0000, ...``."""
    return tuple(getattr(K, "class_ids", None) or
                 (f"{prefix}{j:04d}" for j in range(as_array(K).shape[1])))


def build_label_matrix(labels: Sequence, seen: Sequence) -> np.ndarray:
    """Instance-by-class ``n x k`` target array: +1 at the true class, -1 elsewhere.

    Raises
    ------
    UnknownLabel
        If any label is not among ``seen``.
    """
    seen = tuple(seen)
    index = {cls: j for j, cls in enumerate(seen)}
    n, k = len(labels), len(seen)
    Y = -np.ones((n, k))
    for i, lab in enumerate(labels):
        j = index.get(lab)
        if j is None:
            raise UnknownLabel(f"label {lab!r} is not a seen class")
        Y[i, j] = 1.0
    return Y


def l2_normalize_columns(a: np.ndarray) -> np.ndarray:
    """Scale every column to unit Euclidean norm; zero columns pass through."""
    arr = np.array(as_array(a), copy=True)
    norms = np.linalg.norm(arr, axis=0)
    nz = norms > 0
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
