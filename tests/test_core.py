"""Containers, label matrices, and prototype construction."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dmap.core import (
    CLASS_MEAN,
    ClassSplit,
    EmbeddingMatrix,
    FeatureMatrix,
    LabeledDataset,
    LabelMatrix,
    PrototypeSet,
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
        assert sp.k == 3 and sp.l == 2


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
        np.testing.assert_array_equal(Y.data, [[1, -1], [-1, 1], [1, -1]])

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            build_label_matrix(("a", "c"), ("a", "b"))

    def test_invalid_entries_rejected(self):
        with pytest.raises(ValidationError):
            LabelMatrix(np.array([[1.0, 0.0]]))

    def test_two_positives_rejected(self):
        with pytest.raises(ValidationError):
            LabelMatrix(np.array([[1.0, 1.0]]))

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
        assert protos.source == CLASS_MEAN
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


class TestPrototypeSet:
    def test_source_validated(self):
        with pytest.raises(ValidationError):
            PrototypeSet(np.eye(2), ("a", "b"), source="karaoke")


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
