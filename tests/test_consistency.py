"""Inter-class relationships, the consistency measure, and pre-inspection."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmap.consistency import (
    RELATIVE_EPSILON,
    build_relationship_matrix,
    consistency_measure,
    consistency_report,
    irc_gap,
    preinspect,
    project_onto_seen_span,
)
from dmap.core import EmbeddingMatrix, class_mean_prototypes
from dmap.errors import DimensionMismatch, NumericalError, SingularSystem, ValidationError
from dmap.linmap import predict_semantic
from dmap.model import train
from dmap.synth import PortableRng, defect_setup, exact_recovery_setup, generate
from oracles import cholesky_solve


def ridge_gradient_descent_oracle(A, t, lam, steps=200_000, lr=None):
    """Minimise ||t - A a||^2 + lam ||a||^2 by plain gradient descent.

    Deliberately shares nothing with the closed-form implementation;
    run to convergence so the fixed point is the analytic minimiser.
    """
    H = A.T @ A + lam * np.eye(A.shape[1])
    if lr is None:
        lr = 0.9 / np.linalg.eigvalsh(H).max()
    a = np.zeros(A.shape[1])
    g = A.T @ t
    for _ in range(steps):
        grad = H @ a - g
        a_next = a - lr * grad
        if np.linalg.norm(a_next - a) < 1e-14:
            return a_next
        a = a_next
    return a


def protos(cols, ids=None):
    cols = np.asarray(cols, dtype=np.float64)
    ids = ids or tuple(f"c{i}" for i in range(cols.shape[1]))
    return EmbeddingMatrix(cols, ids)


def percolumn_relationship(P, u, lam):
    """Ridge coefficients of one target, with its own Gram and factor."""
    return cholesky_solve(P.T @ P + lam * np.eye(P.shape[1]), P.T @ u)


def extract(P, t, lam):
    """The relationship of one target: a one-column relationship matrix."""
    t = np.asarray(t, dtype=np.float64)
    R = build_relationship_matrix(protos(P), protos(t.reshape(-1, 1), ("u",)), lam)
    assert R.shape == (np.shape(P)[1], 1)
    return R[:, 0]


def percolumn_preinspect(K_s, K_u, epsilon=None):
    """Pre-inspection with one ``lstsq`` per unseen class and one norm per
    pair: ``(distances, flagged index pairs, epsilon)``."""
    l = K_u.shape[1]
    proj = np.stack(
        [K_s @ np.linalg.lstsq(K_s, K_u[:, j], rcond=None)[0] for j in range(l)], axis=1
    )
    dist = np.zeros((l, l))
    for i in range(l):
        for j in range(i + 1, l):
            dist[i, j] = dist[j, i] = np.linalg.norm(proj[:, i] - proj[:, j])
    if epsilon is None:
        off_diag = dist[np.triu_indices(l, k=1)]
        epsilon = RELATIVE_EPSILON * (float(np.median(off_diag)) if off_diag.size else 0.0)
    flagged = [(i, j) for i in range(l) for j in range(i + 1, l) if dist[i, j] <= epsilon]
    return dist, flagged, epsilon


def lstsq_rounding(K_s):
    """``1e-14`` times the condition number of ``K_s`` on its numerical rank:
    the relative bound allowed between two least-squares projections."""
    _, _, rank, sv = np.linalg.lstsq(K_s, np.zeros(K_s.shape[0]), rcond=None)
    return 1e-14 * sv[0] / sv[rank - 1]


class TestExtractRelationship:
    def test_orthonormal_prototypes_hand_value(self):
        A = np.eye(4)[:, :3]  # e1, e2, e3 in R^4
        alpha = extract(A, A[:, 0], 1e-4)
        expect = np.array([1.0 / (1.0 + 1e-4), 0.0, 0.0])
        np.testing.assert_allclose(alpha, expect, rtol=1e-12)

    def test_zero_target_gives_zero(self):
        A = np.eye(3)
        alpha = extract(A, np.zeros(3), 0.5)
        np.testing.assert_array_equal(alpha, np.zeros(3))

    def test_matches_gradient_descent_oracle(self, rng):
        A = rng.normal(size=(10, 6))
        t = rng.normal(size=10)
        alpha = extract(A, t, 1e-4)
        alpha_gd = ridge_gradient_descent_oracle(A, t, 1e-4)
        assert np.linalg.norm(alpha - alpha_gd) <= 1e-6

    def test_singular_unregularised_system_refused(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank one
        with pytest.raises(SingularSystem):
            extract(A, np.array([1.0, 0.0]), 0.0)


class TestBuildRelationshipMatrix:
    def test_self_relationship_approaches_identity(self):
        A = np.eye(5)[:, :4]
        R = build_relationship_matrix(protos(A), protos(A), 1e-12)
        np.testing.assert_allclose(R, np.eye(4), atol=1e-9)

    def test_single_unseen_column(self, rng):
        A = rng.normal(size=(6, 4))
        t = rng.normal(size=6)
        np.testing.assert_array_equal(extract(A, t, 1e-4), percolumn_relationship(A, t, 1e-4))

    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(1, 40), k=st.integers(1, 40), l=st.integers(1, 12),
           lam=st.floats(1e-8, 10.0), scale=st.sampled_from([1e-3, 1.0, 1e3]),
           seed=st.integers(0, 2**32 - 1), fortran=st.booleans())
    def test_columns_match_percolumn_calls(self, dim, k, l, lam, scale, seed, fortran):
        # k > dim makes P^T P singular, so lam > 0 carries the factorisation.
        rng = np.random.default_rng(seed)
        A = scale * rng.normal(size=(dim, k))
        U = rng.normal(size=(dim, l))
        if fortran:
            A, U = np.asfortranarray(A), np.asfortranarray(U)
        try:
            expected = [percolumn_relationship(A, U[:, j], lam) for j in range(l)]
        except np.linalg.LinAlgError:
            with pytest.raises(SingularSystem):
                build_relationship_matrix(A, U, lam)
            return
        R = build_relationship_matrix(A, U, lam)
        assert R.shape == (k, l)
        assert R.flags.c_contiguous and not R.flags.writeable
        for j in range(l):
            np.testing.assert_array_equal(R[:, j], expected[j])

    def test_prototype_sets_match_percolumn_calls(self, rng):
        A = rng.normal(size=(7, 5))
        U = rng.normal(size=(7, 3))
        R = build_relationship_matrix(protos(A), protos(U), 1e-3)
        for j in range(3):
            np.testing.assert_array_equal(R[:, j], percolumn_relationship(A, U[:, j], 1e-3))

    def test_dimension_mismatch_and_negative_lambda_refused(self, rng):
        A = rng.normal(size=(6, 4))
        with pytest.raises(DimensionMismatch):
            build_relationship_matrix(A, rng.normal(size=(5, 2)), 1e-4)
        with pytest.raises(ValidationError):
            build_relationship_matrix(A, rng.normal(size=(6, 2)), -1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("seen_scale, unseen_scale", [(1e200, 1.0), (1.0, 1e308)])
    def test_overflowing_system_refused(self, rng, seen_scale, unseen_scale):
        # Finite inputs whose Gram (or right-hand side) overflows: the error
        # takes the place of NumPy's overflow warning.
        A = seen_scale * rng.normal(size=(6, 4))
        U = unseen_scale * np.ones((6, 2))
        with pytest.raises(SingularSystem, match="non-finite"):
            build_relationship_matrix(A, U, 1e-4)


class TestConsistencyMeasure:
    def test_equal_relationships_give_one(self, rng):
        A = rng.normal(size=(5, 4))
        R = rng.normal(size=(4, 3)) + 1.0
        assert consistency_measure(protos(A), R, R) == pytest.approx(1.0)

    def test_hand_value_exp_sqrt2(self):
        # One unseen class; seen-span images (1,0) and (0,1):
        # distance sqrt(2), both norms 1 -> exp(-sqrt(2)).
        A = np.eye(2)
        R_x = np.array([[1.0], [0.0]])
        R_k = np.array([[0.0], [1.0]])
        cm = consistency_measure(protos(A), R_x, R_k)
        assert cm == pytest.approx(np.exp(-np.sqrt(2.0)))
        assert cm == pytest.approx(0.24312, abs=5e-6)

    def test_degenerate_both_zero_counts_as_one(self, rng):
        A = rng.normal(size=(4, 3))
        zero = np.zeros((3, 1))
        assert consistency_measure(protos(A), zero, zero) == pytest.approx(1.0)

    def test_degenerate_one_zero_counts_as_zero(self, rng):
        A = np.eye(3)
        zero = np.zeros((3, 1))
        nonzero = np.ones((3, 1))
        assert consistency_measure(protos(A), zero, nonzero) == pytest.approx(0.0)

    @given(st.integers(0, 1000))
    def test_bounded_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(5, 4))
        R_x = rng.normal(size=(4, 3))
        R_k = rng.normal(size=(4, 3))
        cm = consistency_measure(protos(A), R_x, R_k)
        assert 0.0 <= cm <= 1.0

    def test_rotation_invariance(self, rng):
        A = rng.normal(size=(6, 4))
        R_x = rng.normal(size=(4, 3))
        R_k = rng.normal(size=(4, 3))
        Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        before = consistency_measure(protos(A), R_x, R_k)
        after = consistency_measure(protos(Q @ A), R_x, R_k)
        assert after == pytest.approx(before, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("measure, error", [(consistency_measure, "consistency terms"),
                                            (irc_gap, "irc_gap values")])
def test_overflowing_images_refused(measure, error, rng):
    # Finite relationship images whose norms overflow: NaN before.
    A = 1e200 * rng.normal(size=(6, 4))
    with pytest.raises(NumericalError, match=error):
        measure(protos(A), rng.normal(size=(4, 3)), rng.normal(size=(4, 3)))


class TestIrcGap:
    def test_zero_when_equal(self, rng):
        A = rng.normal(size=(5, 4))
        R = rng.normal(size=(4, 2))
        assert irc_gap(protos(A), R, R) == 0.0

    def test_doubled_matrix_gives_one(self, rng):
        A = rng.normal(size=(5, 4))
        base = rng.normal(size=(4, 2))
        R_k = base
        R_x = 2.0 * base
        assert irc_gap(protos(A), R_x, R_k) == pytest.approx(1.0, rel=1e-12)

    def test_matches_direct_frobenius_oracle(self, rng):
        A = rng.normal(size=(6, 5))
        base = rng.normal(size=(5, 3))
        E = 1e-3 * rng.normal(size=(5, 3))
        R_k = base
        R_x = base + E
        expect = np.linalg.norm(A @ (base + E) - A @ base) / np.linalg.norm(A @ base)
        assert irc_gap(protos(A), R_x, R_k) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("measure", [consistency_measure, irc_gap])
def test_shape_mismatch_refused(measure, rng):
    A = rng.normal(size=(5, 4))
    R = rng.normal(size=(4, 2))
    with pytest.raises(DimensionMismatch):
        measure(protos(A), R, rng.normal(size=(4, 3)))
    with pytest.raises(DimensionMismatch):
        measure(protos(A[:, :3]), R, R)


@pytest.mark.parametrize("call, shape", [
    (lambda P, U, R: build_relationship_matrix(P, U[:, 0], 1e-3), "unseen_prototypes is (5,)"),
    (lambda P, U, R: build_relationship_matrix(P[:, :0], U, 1e-3), "seen_prototypes is (5, 0)"),
    (lambda P, U, R: consistency_measure(P, R[:, 0], R[:, 0]), "R_x is (4,)"),
    (lambda P, U, R: irc_gap(P, R[:, 0], R[:, 0]), "R_k is (4,)"),
    (lambda P, U, R: consistency_measure(P, R[:, :0], R[:, :0]), "R_x is (4, 0)"),
    (lambda P, U, R: irc_gap(P[0], R, R), "seen_prototypes is (4,)"),
], ids=["1-D unseen", "zero seen columns", "1-D R in consistency_measure",
        "1-D R in irc_gap", "zero-column R", "1-D seen prototypes"])
def test_inputs_that_are_not_non_empty_matrices_refused(call, shape, rng):
    # Before the shape rule these ended in an IndexError, returned 0.0 or
    # NaN (with NumPy's RuntimeWarning), or returned an empty matrix.
    P, U, R = rng.normal(size=(5, 4)), rng.normal(size=(5, 2)), rng.normal(size=(4, 2))
    with pytest.raises(ValidationError, match=re.escape(shape)):
        call(P, U, R)


class TestConsistencyReport:
    def test_equals_the_four_call_composition_bit_for_bit(self):
        synth_cfg, _ = defect_setup(seed=2)
        ds = generate(replace(synth_cfg, noise_sigma=0.3, irc_distortion=0.5))
        X = np.concatenate([ds.train.features.data, ds.test_features.data], axis=1)
        labels = tuple(ds.train.labels) + tuple(ds.test_labels)
        seen = class_mean_prototypes(X, labels, ds.split.seen)
        unseen = class_mean_prototypes(X, labels, ds.split.unseen)
        R_x = build_relationship_matrix(seen, unseen, 1e-3)
        R_k = build_relationship_matrix(ds.embeddings.subset(ds.split.seen),
                                        ds.embeddings.subset(ds.split.unseen), 1e-3)
        expected = (consistency_measure(seen, R_x, R_k), irc_gap(seen, R_x, R_k))
        assert consistency_report(X, labels, ds.split, ds.embeddings, 1e-3) == expected
        assert 0.0 < expected[0] < 1.0 and expected[1] > 0.0


class TestProjection:
    def test_in_span_vector_has_no_residual(self, rng):
        K_s = rng.normal(size=(6, 3))
        k_u = K_s @ np.array([0.3, -1.2, 0.5])
        u = project_onto_seen_span(K_s, k_u)
        np.testing.assert_allclose(u, k_u, atol=1e-10)
        assert np.linalg.norm(k_u - u) <= 1e-10

    def test_coordinate_projection_hand_example(self):
        K_s = np.eye(3)[:, :2]
        k_u = np.array([1.0, 2.0, 3.0])
        u = project_onto_seen_span(K_s, k_u)
        np.testing.assert_allclose(u, [1.0, 2.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(k_u - u, [0.0, 0.0, 3.0], atol=1e-12)

    def test_reconstruction_and_orthogonality(self, rng):
        # rank-3 span inside R^6, plus a rank-deficient duplicate column
        base = rng.normal(size=(6, 3))
        K_s = np.concatenate([base, base[:, :1]], axis=1)
        k_u = rng.normal(size=6)
        u = project_onto_seen_span(K_s, k_u)
        # u lies in the span: it is reproduced by a least-squares fit over K_s.
        coef = np.linalg.lstsq(K_s, u, rcond=None)[0]
        np.testing.assert_allclose(K_s @ coef, u, rtol=1e-10, atol=1e-12)
        v = k_u - u
        for j in range(K_s.shape[1]):
            col = K_s[:, j]
            assert abs(v @ col) <= 1e-8 * np.linalg.norm(v) * np.linalg.norm(col) + 1e-12

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_columns_match_one_column_calls(self, p, k, l, seed):
        rng = np.random.default_rng(seed)
        K_s = rng.normal(size=(p, k))
        K_u = rng.normal(size=(p, l))
        U = project_onto_seen_span(K_s, K_u)
        assert U.shape == (p, l)
        for j in range(l):
            u = project_onto_seen_span(K_s, K_u[:, j])
            assert u.shape == (p,)
            bound = lstsq_rounding(K_s) * np.linalg.norm(K_u[:, j])
            np.testing.assert_allclose(U[:, j], u, rtol=0, atol=bound)


class TestPreinspect:
    def test_one_dimensional_unseen_embeddings_refused(self, rng):
        # project_onto_seen_span takes one unseen vector; preinspect
        # compares columns, so it needs a matrix.
        K_s, k_u = rng.normal(size=(5, 3)), rng.normal(size=5)
        assert project_onto_seen_span(K_s, k_u).shape == (5,)
        with pytest.raises(ValidationError, match=re.escape("K_u is (5,)")):
            preinspect(K_s, k_u)

    def test_one_dimensional_seen_embeddings_refused(self, rng):
        for inspect in (preinspect, project_onto_seen_span):
            with pytest.raises(ValidationError, match=re.escape("K_s is (5,)")):
                inspect(rng.normal(size=5), rng.normal(size=(5, 2)))

    def test_empty_seen_embeddings_refused(self, rng):
        # Without the rule, every projection was 0 and every pair flagged.
        for inspect in (preinspect, project_onto_seen_span):
            with pytest.raises(ValidationError, match=re.escape("K_s is (5, 0)")):
                inspect(np.empty((5, 0)), rng.normal(size=(5, 3)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_distances_refused(self):
        # Embeddings x1e200: every distance squares to Inf, which gave an
        # infinite default epsilon that flagged every pair.
        synth_cfg, _ = exact_recovery_setup(seed=0)
        ds = generate(synth_cfg)
        K_s, K_u = (1e200 * ds.embeddings.subset(side).data
                    for side in (ds.split.seen, ds.split.unseen))
        with pytest.raises(NumericalError, match="projection distances"):
            preinspect(K_s, K_u)

    def test_orthogonal_difference_is_flagged(self):
        K_s = np.eye(4)[:, :2]
        shared = np.array([0.5, 0.25, 0.0, 0.0])
        k_a = shared + np.array([0.0, 0.0, 1.0, 0.0])
        k_b = shared + np.array([0.0, 0.0, 0.0, 1.0])
        report = preinspect(K_s, np.stack([k_a, k_b], axis=1), epsilon=1e-9)
        assert [(a, b) for a, b, _ in report.flagged_pairs] == [("u0000", "u0001")]
        assert report.pairwise_distances[0, 1] <= 1e-12

    def test_in_span_embeddings_keep_their_distances(self, rng):
        K_s = np.linalg.qr(rng.normal(size=(6, 4)))[0]
        K_u = K_s @ rng.normal(size=(4, 3))
        report = preinspect(K_s, K_u, epsilon=0.0)
        for i in range(3):
            for j in range(3):
                raw = np.linalg.norm(K_u[:, i] - K_u[:, j])
                assert report.pairwise_distances[i, j] == pytest.approx(raw, abs=1e-9)
        assert report.flagged_pairs == ()

    def test_diagonal_is_zero_and_matrix_symmetric(self, rng):
        K_s = rng.normal(size=(5, 2))
        K_u = rng.normal(size=(5, 4))
        report = preinspect(K_s, K_u)
        np.testing.assert_array_equal(np.diag(report.pairwise_distances), np.zeros(4))
        np.testing.assert_allclose(report.pairwise_distances,
                                   report.pairwise_distances.T, rtol=1e-12)

    def test_flagged_distances_respect_epsilon(self, rng):
        K_s = rng.normal(size=(4, 2))
        K_u = rng.normal(size=(4, 5))
        report = preinspect(K_s, K_u, epsilon=0.3)
        for _, _, dist in report.flagged_pairs:
            assert dist <= 0.3

    @given(st.integers(0, 300))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        K_s = rng.normal(size=(5, 2))
        K_u = rng.normal(size=(5, 4))
        D = preinspect(K_s, K_u).pairwise_distances
        l = D.shape[0]
        for i in range(l):
            for j in range(l):
                for t in range(l):
                    assert D[i, j] <= D[i, t] + D[t, j] + 1e-9

    @given(st.integers(1, 8), st.integers(0, 8), st.integers(1, 8), st.integers(1, 6),
           st.integers(0, 3), st.sampled_from([None, 1e-9]), st.integers(-3, 3),
           st.integers(0, 6), st.integers(0, 2**32 - 1))
    def test_matches_percolumn_reference(self, p, extra_k, rank, l, pairs, epsilon, exponent,
                                         weak, seed):
        # K_s has k >= p columns, rank at most p and one direction weakened
        # by 10^-weak; the first unseen classes come in planted pairs that
        # share their projection.
        rng = np.random.default_rng(seed)
        k = p + extra_k
        rank = min(rank, p)
        scale = 10.0 ** exponent
        A = rng.normal(size=(p, rank))
        A[:, 0] *= 10.0 ** -weak
        K_s = scale * A @ rng.normal(size=(rank, k))
        K_u = scale * rng.normal(size=(p, l))
        outside = np.linalg.svd(K_s)[0][:, rank:]
        for q in range(min(pairs, l // 2)):
            K_u[:, 2 * q + 1] = K_u[:, 2 * q] + scale * outside @ rng.normal(size=p - rank)
        absolute = None if epsilon is None else epsilon * scale
        dist, flagged, eps = percolumn_preinspect(K_s, K_u, absolute)
        report = preinspect(K_s, K_u, absolute)
        D = report.pairwise_distances
        np.testing.assert_array_equal(np.diag(D), np.zeros(l))
        np.testing.assert_array_equal(D, D.T)
        # Where every pair is planted the largest distance is itself rounding
        # noise, so the bound also scales with the largest embedding.
        size = max(dist.max(), np.linalg.norm(K_u, axis=0).max())
        bound = lstsq_rounding(K_s) * size
        np.testing.assert_allclose(D, dist, rtol=0, atol=bound)
        assert abs(report.epsilon - eps) <= RELATIVE_EPSILON * bound
        # A pair is flagged alike unless its distance lies within the rounding
        # bound of the threshold, as when a default epsilon is taken from a
        # median that is itself rounding noise.
        got = {(int(a[1:]), int(b[1:])) for a, b, _ in report.flagged_pairs}
        for i, j in zip(*np.triu_indices(l, k=1)):
            if abs(dist[i, j] - eps) > 2 * bound:
                assert ((i, j) in got) == ((i, j) in flagged)

    def test_low_rank_span_collapses_many_distances(self):
        # A narrow seen span (10 classes) under many unseen classes (190)
        # in a 312-dimensional space: unseen classes that differ only
        # outside the seen span are far apart as raw embeddings yet
        # indistinguishable after projection.  Build five groups of 38
        # classes sharing one in-span component each, with distinct
        # out-of-span residuals, and check the within-group projection
        # distances collapse while the raw distances stay ordinary.
        rng = PortableRng(7)
        p, k, l, groups = 312, 10, 190, 5
        K_s = np.linalg.qr(rng.normal(p, k))[0]
        shared = K_s @ rng.normal(k, groups)  # one in-span point per group
        shared *= 0.5 / np.linalg.norm(shared, axis=0)
        K_u = np.empty((p, l))
        for j in range(l):
            resid = rng.normal(p, 1)[:, 0]
            resid -= K_s @ (K_s.T @ resid)
            resid *= np.sqrt(1.0 - 0.25) / np.linalg.norm(resid)
            K_u[:, j] = shared[:, j % groups] + resid
        report = preinspect(K_s, K_u)
        D = report.pairwise_distances
        iu = np.triu_indices(l, k=1)
        off = D[iu]
        raw = np.array([
            np.linalg.norm(K_u[:, i] - K_u[:, j]) for i, j in zip(*iu)
        ])
        same_group = (iu[0] % groups) == (iu[1] % groups)
        # within a group the projections coincide to machine precision
        assert np.max(off[same_group]) <= 1e-3 * np.median(off)
        # ... even though the raw embeddings are not unusually close
        assert np.min(raw[same_group]) > 0.25 * np.median(raw)
        # and the collapsed share matches the construction (5 * C(38,2)
        # out of C(190,2) pairs, about a fifth)
        assert np.mean(off <= 1e-3 * np.median(off)) >= 0.19


class TestPaperClaimRealizations:
    def test_exact_map_sends_unseen_prototypes_to_projections(self):
        # On an exactly-consistent dataset the learned map must send each
        # unseen feature prototype to the projection of its embedding
        # onto the seen span.
        synth_cfg, run_cfg = exact_recovery_setup(seed=3)
        ds = generate(synth_cfg)
        model = train(ds.train, run_cfg)
        K_s = ds.embeddings.subset(ds.split.seen).data
        for j, cid in enumerate(ds.split.unseen):
            k_u = ds.embeddings.column(cid)
            proto_cols = [i for i, lab in enumerate(ds.test_labels) if lab == cid]
            x_u = ds.test_features.data[:, proto_cols].mean(axis=1)
            pred = predict_semantic(model.f_s, x_u.reshape(-1, 1))[:, 0]
            u = project_onto_seen_span(K_s, k_u)
            # the closed form scales predictions uniformly; compare directions
            scale = np.linalg.norm(pred) / max(np.linalg.norm(u), 1e-300)
            np.testing.assert_allclose(pred, scale * u, rtol=1e-6, atol=1e-10)

    def test_equal_projections_mean_equal_scores(self):
        synth_cfg, run_cfg = defect_setup(seed=1)
        ds = generate(synth_cfg)
        model = train(ds.train, run_cfg)
        X = ds.test_features.data
        preds = predict_semantic(model.f_s, X)
        K_u = ds.embeddings.subset(ds.split.unseen).data
        scores = K_u.T @ preds
        for a, b in ((0, 1), (2, 3)):  # planted defect pairs
            num = np.abs(scores[a] - scores[b])
            den = np.maximum(np.abs(scores[a]), np.abs(scores[b]))
            assert np.max(num / den) <= 1e-9
