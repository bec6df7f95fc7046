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
    _class_ids,
    _hand_over,
    as_array,
    build_label_matrix,
    center_columns,
    class_mean_prototypes,
    l2_normalize_columns,
)
from dmap.errors import (
    DimensionMismatch,
    MissingClass,
    NumericalError,
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

    def test_writable_source_is_copied(self):
        src = np.arange(6.0).reshape(2, 3)
        fm = FeatureMatrix(src)
        src[0, 0] = 99.0
        assert fm.data[0, 0] == 0.0 and not np.shares_memory(fm.data, src)

    def test_read_only_view_of_a_writable_base_is_copied(self):
        base = np.arange(6.0)
        view = base.reshape(2, 3)
        view.setflags(write=False)
        fm = FeatureMatrix(view)
        base[0] = 99.0
        assert fm.data[0, 0] == 0.0 and not np.shares_memory(fm.data, base)

    def test_writable_view_of_a_read_only_base_is_copied(self):
        # Locking a base does not lock the views already taken of it.
        base = np.arange(6.0)
        view = base.reshape(2, 3)
        base.setflags(write=False)
        fm = FeatureMatrix(view)
        view[0, 0] = 99.0
        assert fm.data[0, 0] == 0.0 and not np.shares_memory(fm.data, base)

    @pytest.mark.parametrize("make", [
        lambda: np.frombuffer(np.arange(6.0).tobytes()).reshape(2, 3),  # base is bytes
        lambda: np.asfortranarray(np.arange(6.0).reshape(2, 3)),
        lambda: np.arange(6.0).reshape(2, 3).astype(">f8"),
        lambda: np.arange(6, dtype=np.float32).reshape(2, 3),
    ], ids=["foreign-base", "fortran", "big-endian", "float32"])
    def test_read_only_arrays_of_other_layouts_are_copied(self, make):
        src = _hand_over(make())
        fm = FeatureMatrix(src)
        assert not np.shares_memory(fm.data, src)
        assert fm.data.dtype == np.float64 and fm.data.flags.c_contiguous
        assert np.array_equal(fm.data, src) and not fm.data.flags.writeable

    def test_read_only_chain_is_adopted(self):
        base = np.arange(8.0)
        view = _hand_over(base[:6].reshape(2, 3))
        assert not base.flags.writeable
        fm = FeatureMatrix(view)
        em = EmbeddingMatrix(view)
        assert fm.data is view and em.data is view
        assert np.shares_memory(fm.data, base)
        with pytest.raises(ValueError):
            fm.data.setflags(write=True)
        with pytest.raises(ValueError):
            fm.data[0, 0] = 1.0

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

    def test_positional_class_ids(self):
        em = EmbeddingMatrix(np.ones((2, 3)))
        assert em.class_ids == ("c0000", "c0001", "c0002")
        assert _class_ids(em, "u") == em.class_ids
        assert _class_ids(np.ones((2, 2)), "u") == ("u0000", "u0001")
        assert _class_ids(np.ones((2, 1)), "s") == ("s0000",)

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

    @pytest.mark.parametrize("X", [np.ones(4), np.ones((1, 4, 1)), np.float64(1.0),
                                   np.ones((0, 4))])
    def test_non_matrix_or_rowless_features_rejected(self, X):
        with pytest.raises(ValidationError, match="each must be a non-empty 2-D matrix"):
            class_mean_prototypes(X, ("a", "b", "a", "b"), ("a", "b"))

    def test_features_without_columns_rejected(self):
        with pytest.raises(MissingClass, match="has no instances"):
            class_mean_prototypes(np.ones((3, 0)), (), ("a", "b"))

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale, error", [(1e200, "column norms are not finite"),
                                              (1e-170, "column norms underflow")])
    def test_l2_normalize_refuses_norms_beyond_float64(self, scale, error):
        # The norm of the first column overflows to Inf (which would zero the
        # column) or underflows to 0 (which would leave it unnormalised).
        a = np.array([[3.0 * scale, 3.0, 0.0], [4.0 * scale, 4.0, 0.0]])
        with pytest.raises(NumericalError, match=error):
            l2_normalize_columns(a)
        out = l2_normalize_columns(a[:, 1:])
        np.testing.assert_array_equal(out[:, 1], [0.0, 0.0])  # zero still passes through

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-160, 1e-162])
    def test_l2_normalize_subnormal_sums_of_squares_give_unit_norms(self, scale):
        # The squares fall in the subnormal range and lose bits: unscaled,
        # the first column came out with norm 1.0000056 (1e-160) or 1.006.
        a = np.array([[3.0 * scale, 3.0, 0.0], [4.0 * scale, 4.0, 0.0]])
        out = l2_normalize_columns(a)
        np.testing.assert_allclose(out[:, 0], [0.6, 0.8], rtol=1e-15)
        # Well-scaled columns keep the bytes of dividing by the unscaled norm.
        b = np.random.default_rng(0).normal(size=(5, 7))
        assert l2_normalize_columns(b).tobytes() == (b / np.linalg.norm(b, axis=0)).tobytes()
        np.testing.assert_array_equal(out[:, 1:], [[0.6, 0.0], [0.8, 0.0]])

    def test_center_columns_roundtrip(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 7))
        centered, mean = center_columns(a)
        np.testing.assert_allclose(centered.mean(axis=1), 0.0, atol=1e-12)
        # applying a stored mean reproduces the identical shift
        again, _ = center_columns(a, mean)
        np.testing.assert_array_equal(centered, again)
