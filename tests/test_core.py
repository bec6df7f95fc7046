"""Containers, the +-1 label array, and prototype construction."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dmap.core import (
    ClassSplit,
    EmbeddingMatrix,
    FeatureMatrix,
    LabeledDataset,
    as_array,
    build_label_matrix,
    center_columns,
    class_mean_prototypes,
    l2_normalize_columns,
)
from dmap.errors import (
    DimensionMismatch,
    MissingClass,
    UnknownLabel,
    ValidationError,
)


def decode_label_matrix(Y, seen) -> tuple:
    """Inverse of :func:`build_label_matrix`: argmax of each row."""
    seen = tuple(seen)
    return tuple(seen[j] for j in np.argmax(as_array(Y), axis=1))


def make_split(k=2, l=2):
    return ClassSplit(
        seen=tuple(f"s{i}" for i in range(k)),
        unseen=tuple(f"u{i}" for i in range(l)),
    )


class TestFeatureMatrix:
    def test_auto_instance_ids(self):
        fm = FeatureMatrix(np.zeros((3, 4)))
        assert fm.instance_ids == ("i000000", "i000001", "i000002", "i000003")
        assert fm.d == 3 and fm.n == 4

    def test_data_frozen_and_float64(self):
        src = np.array([[1, 2], [3, 4]], dtype=np.int32)
        fm = FeatureMatrix(src)
        assert fm.data.dtype == np.float64
        with pytest.raises(ValueError):
            fm.data[0, 0] = 99.0
        src[0, 0] = 7  # mutating the source must not reach the container
        assert fm.data[0, 0] == 1.0

    def test_id_count_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            FeatureMatrix(np.zeros((2, 3)), instance_ids=("a", "b"))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            FeatureMatrix(np.array([[np.nan, 0.0]]))


class TestEmbeddingMatrix:
    def test_column_and_subset(self):
        em = EmbeddingMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]), ("a", "b"))
        np.testing.assert_array_equal(em.column("b"), [2.0, 4.0])
        sub = em.subset(("b",))
        assert sub.class_ids == ("b",)
        np.testing.assert_array_equal(sub.data, [[2.0], [4.0]])

    def test_unknown_class(self):
        em = EmbeddingMatrix(np.eye(2), ("a", "b"))
        with pytest.raises(MissingClass):
            em.column("c")

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            EmbeddingMatrix(np.eye(2), ("a", "a"))

    def test_zero_column_warns(self, caplog):
        with caplog.at_level("WARNING"):
            EmbeddingMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]), ("a", "b"))
        assert any("zero" in rec.message for rec in caplog.records)


class TestClassSplit:
    def test_overlap_rejected(self):
        with pytest.raises(ValidationError):
            ClassSplit(seen=("a", "b"), unseen=("b",))

    def test_empty_side_rejected(self):
        with pytest.raises(ValidationError):
            ClassSplit(seen=(), unseen=("u",))

    def test_side_counts(self):
        sp = make_split(k=3, l=2)
        assert len(sp.seen) == 3 and len(sp.unseen) == 2


class TestLabeledDataset:
    def _semantic(self, split):
        ids = split.seen + split.unseen
        return EmbeddingMatrix(np.eye(len(ids)), ids)

    def test_label_outside_seen_rejected(self):
        sp = make_split()
        with pytest.raises(UnknownLabel):
            LabeledDataset(
                features=FeatureMatrix(np.zeros((4, 2))),
                labels=("s0", "u0"),
                split=sp,
                semantic=self._semantic(sp),
            )

    def test_semantic_must_cover_split(self):
        sp = make_split()
        with pytest.raises(MissingClass):
            LabeledDataset(
                features=FeatureMatrix(np.zeros((4, 2))),
                labels=("s0", "s1"),
                split=sp,
                semantic=EmbeddingMatrix(np.eye(2), ("s0", "s1")),
            )  # u0/u1 embeddings absent

    def test_label_count_must_match_instances(self):
        sp = make_split()
        with pytest.raises(DimensionMismatch):
            LabeledDataset(
                features=FeatureMatrix(np.zeros((4, 3))),
                labels=("s0", "s1"),
                split=sp,
                semantic=self._semantic(sp),
            )


class TestLabelMatrix:
    def test_one_hot_signs(self):
        Y = build_label_matrix(("a", "b", "a"), ("a", "b"))
        assert type(Y) is np.ndarray and Y.dtype == np.float64
        np.testing.assert_array_equal(Y, [[1, -1], [-1, 1], [1, -1]])

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            build_label_matrix(("a", "c"), ("a", "b"))

    @given(
        st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=30)
    )
    def test_decode_inverts_build(self, labels):
        seen = ("a", "b", "c")
        Y = build_label_matrix(labels, seen)
        assert decode_label_matrix(Y, seen) == tuple(labels)


class TestClassMeanPrototypes:
    def test_hand_example(self):
        X = np.array([[0.0, 2.0, 10.0], [0.0, 4.0, 20.0]])
        protos = class_mean_prototypes(X, ("a", "a", "b"), ("a", "b"))
        np.testing.assert_array_equal(protos.data, [[1.0, 10.0], [2.0, 20.0]])

    def test_missing_class(self):
        X = np.zeros((2, 2))
        with pytest.raises(MissingClass):
            class_mean_prototypes(X, ("a", "a"), ("a", "b"))

    @given(st.integers(1, 5), st.integers(2, 4), st.data())
    def test_matches_per_class_mean_oracle(self, d, c, data):
        classes = tuple(f"c{i}" for i in range(c))
        labels = data.draw(
            st.lists(st.sampled_from(classes), min_size=c, max_size=20).filter(
                lambda ls: set(ls) == set(classes)
            )
        )
        X = np.arange(d * len(labels), dtype=np.float64).reshape(d, len(labels))
        protos = class_mean_prototypes(X, labels, classes)
        for j, cls in enumerate(classes):
            cols = [i for i, lab in enumerate(labels) if lab == cls]
            np.testing.assert_allclose(protos.data[:, j], X[:, cols].mean(axis=1))


def loop_class_means(X, labels, classes):
    """Class means with one generator mask per class."""
    labels = tuple(labels)
    if len(labels) != X.shape[1]:
        raise DimensionMismatch(f"{len(labels)} labels for {X.shape[1]} feature columns")
    protos = np.empty((X.shape[0], len(classes)))
    for i, cls in enumerate(classes):
        mask = np.fromiter((lab == cls for lab in labels), dtype=bool, count=len(labels))
        if not mask.any():
            raise MissingClass(f"class {cls!r} has no instances")
        protos[:, i] = X[:, mask].mean(axis=1)
    return protos


def loop_label_matrix(labels, seen):
    """The +-1 label array filled one label at a time."""
    index = {cls: j for j, cls in enumerate(seen)}
    Y = -np.ones((len(labels), len(seen)))
    for i, lab in enumerate(labels):
        j = index.get(lab)
        if j is None:
            raise UnknownLabel(f"label {lab!r} is not a seen class")
        Y[i, j] = 1.0
    return Y


def index_subset(em, wanted):
    """``EmbeddingMatrix.subset`` with one ``tuple.index`` per class."""
    idx = []
    for cid in wanted:
        try:
            idx.append(em.class_ids.index(cid))
        except ValueError:
            raise MissingClass(f"class {cid!r} not in embedding matrix") from None
    return EmbeddingMatrix(em.data[:, idx], tuple(wanted)).data


def outcome(fn, *args):
    """Result bytes, or the error's type and message."""
    try:
        return as_array(fn(*args)).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


# Class ids of both accepted types; extra ids play labels outside the classes.
class_id = st.one_of(st.integers(-2, 5), st.text("ab", max_size=2))


class TestClassLookupMatchesLoops:
    """The one class-id lookup against the per-class loops it replaced."""

    @given(st.lists(class_id, min_size=1, max_size=5, unique=True),
           st.lists(class_id, max_size=3), st.data())
    def test_class_means_and_label_matrix(self, classes, extra, data):
        labels = data.draw(st.lists(st.sampled_from(classes + extra), max_size=12))
        rng = np.random.default_rng(len(labels))
        X = rng.normal(size=(data.draw(st.integers(1, 3)), len(labels)))
        assert (outcome(class_mean_prototypes, X, labels, classes)
                == outcome(loop_class_means, X, labels, classes))
        assert (outcome(build_label_matrix, labels, classes)
                == outcome(loop_label_matrix, labels, classes))

    @given(st.lists(class_id, min_size=1, max_size=5, unique=True),
           st.lists(class_id, max_size=3), st.data())
    def test_subset(self, ids, extra, data):
        em = EmbeddingMatrix(np.arange(1.0, 2 * len(ids) + 1).reshape(2, -1), ids)
        wanted = data.draw(st.lists(st.sampled_from(ids + extra), max_size=6))
        assert outcome(em.subset, wanted) == outcome(index_subset, em, wanted)

    def test_duplicate_classes_rejected(self):
        X = np.eye(2)
        with pytest.raises(ValidationError, match="not unique"):
            class_mean_prototypes(X, ("a", "b"), ("a", "b", "a"))
        with pytest.raises(ValidationError, match="not unique"):
            build_label_matrix(("a", "b"), ("a", "b", "a"))


class TestColumnHelpers:
    def test_l2_normalize_columns(self):
        a = np.array([[3.0, 0.0], [4.0, 0.0]])
        out = l2_normalize_columns(a)
        np.testing.assert_allclose(out[:, 0], [0.6, 0.8])
        np.testing.assert_array_equal(out[:, 1], [0.0, 0.0])  # zero passes through

    @given(st.integers(1, 6), st.integers(1, 6))
    def test_l2_normalize_gives_unit_norms(self, d, n):
        rng = np.random.default_rng(d * 10 + n)
        a = rng.normal(size=(d, n)) + 0.1
        norms = np.linalg.norm(l2_normalize_columns(a), axis=0)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-12)

    def test_center_columns_roundtrip(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 7))
        centered, mean = center_columns(a)
        np.testing.assert_allclose(centered.mean(axis=1), 0.0, atol=1e-12)
        # applying a stored mean reproduces the identical shift
        again, _ = center_columns(a, mean)
        np.testing.assert_array_equal(centered, again)
