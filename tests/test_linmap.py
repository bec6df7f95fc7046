"""Closed-form ridge map: oracle equivalence, optimality, and guards."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmap.errors import DimensionMismatch, NumericalError, SingularSystem, ValidationError
from dmap.linmap import (
    COND_LIMIT,
    predict_semantic,
    ridge_feature_side,
    ridge_objective,
    solve_ridge_map,
    stationarity_residual,
)


def kron_normal_equation_oracle(X, K, Y, gamma, eta):
    """Solve the stationarity system as one dense linear solve.

    The gradient condition (X X^T + gamma I) V (K K^T + eta I) = X Y K^T
    vectorises to  [(K K^T + eta I) (x) (X X^T + gamma I)] vec(V) = vec(X Y K^T)
    with (x) the Kronecker product and column-major vec.  Building the
    full d*p x d*p system and solving it densely shares no code with the
    two-factorisation implementation under test.
    """
    d = X.shape[0]
    p = K.shape[0]
    A = X @ X.T + gamma * np.eye(d)
    B = K @ K.T + eta * np.eye(p)
    lhs = np.kron(B, A)
    rhs = (X @ Y @ K.T).flatten(order="F")
    return np.linalg.solve(lhs, rhs).reshape((d, p), order="F")


def random_problem(rng, d=None, n=None, p=None, k=None):
    d = d or int(rng.integers(2, 8))
    n = n or int(rng.integers(d, 3 * d + 4))
    p = p or int(rng.integers(2, 6))
    k = k or int(rng.integers(2, 5))
    X = rng.normal(size=(d, n))
    K = rng.normal(size=(p, k))
    labels = rng.integers(0, k, size=n)
    Y = np.full((n, k), -1.0)
    Y[np.arange(n), labels] = 1.0
    return X, K, Y


class TestClosedForm:
    def test_identity_system(self):
        V = solve_ridge_map(np.eye(2), np.eye(2), np.eye(2), 0.0, 0.0)
        np.testing.assert_allclose(V, np.eye(2), atol=1e-12)

    def test_identity_system_with_shrinkage(self):
        V = solve_ridge_map(np.eye(2), np.eye(2), np.eye(2), 1.0, 0.0)
        np.testing.assert_allclose(V, 0.5 * np.eye(2), atol=1e-12)

    def test_matches_kronecker_oracle(self, rng):
        for trial in range(25):
            X, K, Y = random_problem(rng)
            gamma = float(rng.choice([1e-2, 1e-1, 1.0, 10.0]))
            eta = float(rng.choice([1e-2, 1e-1, 1.0, 10.0]))
            V = solve_ridge_map(X, K, Y, gamma, eta)
            V_star = kron_normal_equation_oracle(X, K, Y, gamma, eta)
            err = np.linalg.norm(V - V_star) / np.linalg.norm(V_star)
            assert err <= 1e-8, f"trial {trial}: oracle mismatch {err:.2e}"

    def test_tall_skinny_branches_agree(self, rng):
        # d > n exercises the feature-side push-through; k < p the
        # embedding-side one.  Both must still satisfy the oracle.
        X = rng.normal(size=(12, 5))
        K = rng.normal(size=(8, 3))
        labels = rng.integers(0, 3, size=5)
        Y = np.full((5, 3), -1.0)
        Y[np.arange(5), labels] = 1.0
        V = solve_ridge_map(X, K, Y, 0.5, 0.25)
        V_star = kron_normal_equation_oracle(X, K, Y, 0.5, 0.25)
        np.testing.assert_allclose(V, V_star, rtol=1e-9, atol=1e-12)

    def test_stationarity_residual_vanishes(self, rng):
        for _ in range(10):
            X, K, Y = random_problem(rng)
            V = solve_ridge_map(X, K, Y, 0.3, 0.7)
            res = stationarity_residual(V, X, K, Y, 0.3, 0.7)
            assert np.linalg.norm(res) <= 1e-6 * np.linalg.norm(V)

    def test_perturbation_never_improves(self, rng):
        X, K, Y = random_problem(rng, d=5, n=14, p=4, k=3)
        V = solve_ridge_map(X, K, Y, 0.2, 0.4)
        base = ridge_objective(V, X, K, Y, 0.2, 0.4)
        for _ in range(20):
            delta = rng.normal(size=V.shape)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert ridge_objective(V + delta, X, K, Y, 0.2, 0.4) >= base

    def test_regularization_shrinks_solution(self, rng):
        X, K, Y = random_problem(rng, d=6, n=20, p=5, k=4)
        for grid, fixed_eta in (( [1e-3, 1e-1, 10.0, 1e3], 0.5 ),):
            norms = [
                np.linalg.norm(solve_ridge_map(X, K, Y, g, fixed_eta) @ K)
                for g in grid
            ]
            assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))
        norms_eta = [
            np.linalg.norm(X.T @ solve_ridge_map(X, K, Y, 0.5, e))
            for e in [1e-3, 1e-1, 10.0, 1e3]
        ]
        assert all(a >= b - 1e-12 for a, b in zip(norms_eta, norms_eta[1:]))

    def test_negative_regulariser_rejected(self):
        with pytest.raises(ValidationError):
            solve_ridge_map(np.eye(2), np.eye(2), np.eye(2), -1.0, 0.0)

    def test_shape_mismatch_rejected(self, rng):
        X, K, Y = random_problem(rng, d=4, n=10, p=3, k=3)
        with pytest.raises(DimensionMismatch):
            solve_ridge_map(X, K, Y[:-1], 0.1, 0.1)

    def test_singular_gram_refused_without_regulariser(self):
        # Rank-1 features in R^3: X X^T is singular, gamma = 0 cannot fix it.
        X = np.outer([1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0])
        K = np.eye(2)
        Y = np.full((4, 2), -1.0)
        Y[:, 0] = 1.0
        with pytest.raises(SingularSystem):
            solve_ridge_map(X, K, Y, 0.0, 0.1)

    def test_condition_above_the_limit_refused(self):
        # X X^T = diag(1, 1e-13): finite and nonsingular, but its condition
        # number 1e13 lies above COND_LIMIT.
        X = np.diag([1.0, 10.0 ** -6.5])
        assert COND_LIMIT < np.linalg.cond(X @ X.T) < np.inf
        with pytest.raises(SingularSystem, match="condition"):
            solve_ridge_map(X, np.eye(2), np.eye(2), 0.0, 0.1)
        solve_ridge_map(X, np.eye(2), np.eye(2), 1e-3, 0.1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e200, np.inf, np.nan])
    def test_non_finite_gram_refused(self, scale):
        # 1e200-scale features are finite, but their Gram matrix overflows.
        X = np.array([[scale, 1.0, 0.0], [0.0, 1.0, 1.0]])
        K = np.eye(2)
        Y = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(SingularSystem, match="non-finite"):
            solve_ridge_map(X, K, Y, 1.0, 1.0)
        with pytest.raises(SingularSystem, match="non-finite"):
            solve_ridge_map(np.eye(3), K, Y, np.nan, 1.0)

    @pytest.mark.parametrize("X, K, Y", [
        (np.zeros((0, 5)), np.ones((3, 2)), np.ones((5, 2))),  # d = 0
        (np.ones((4, 5)), np.ones((3, 0)), np.ones((5, 0))),  # k = 0
        (np.ones((4, 0)), np.ones((3, 2)), np.ones((0, 2))),  # n = 0
        (np.ones(5), np.ones((3, 2)), np.ones((5, 2))),
        (np.ones((4, 5)), np.ones((3, 2)), np.ones((5, 2, 1))),
    ])
    def test_empty_or_non_matrix_input_rejected(self, X, K, Y):
        shapes = f"X is {X.shape}, K is {K.shape}, Y is {Y.shape}"
        with pytest.raises(ValidationError, match=re.escape(shapes)):
            solve_ridge_map(X, K, Y, 1.0, 1.0)
        with pytest.raises(ValidationError, match=re.escape(f"X is {X.shape}, Y is {Y.shape}")):
            ridge_feature_side(X, Y, 1.0)

    def test_feature_side_of_the_wrong_shape_rejected(self, rng):
        X, K, Y = random_problem(rng, d=4, n=10, p=3, k=2)
        T = ridge_feature_side(X, Y, 0.1)
        for bad in (T.T, T[:, :1], T[:-1], T.ravel()):
            with pytest.raises(DimensionMismatch, match="feature_side"):
                solve_ridge_map(X, K, Y, 0.1, 0.2, feature_side=bad)
        with pytest.raises(DimensionMismatch):
            ridge_feature_side(X, Y[:-1], 0.1)
        with pytest.raises(ValidationError):
            ridge_feature_side(X, Y, -1.0)

    def test_returns_a_read_only_c_contiguous_array(self, rng):
        # p <= k takes the branch whose solve returns a transposed array.
        for p, k in ((3, 2), (2, 3)):
            X, K, Y = random_problem(rng, d=4, n=10, p=p, k=k)
            V = solve_ridge_map(X, K, Y, 0.1, 0.2)
            assert type(V) is np.ndarray and V.dtype == np.float64 and V.shape == (4, p)
            assert V.flags.c_contiguous and not V.flags.writeable


class TestPredictSemantic:
    def test_identity_map_returns_inputs(self, rng):
        X = rng.normal(size=(3, 5))
        np.testing.assert_array_equal(predict_semantic(np.eye(3), X), X)

    def test_zero_map_returns_zero(self, rng):
        X = rng.normal(size=(3, 5))
        assert not np.any(predict_semantic(np.zeros((3, 2)), X))

    def test_matches_triple_loop_oracle(self, rng):
        V = rng.normal(size=(4, 3))
        X = rng.normal(size=(4, 6))
        out = predict_semantic(V, X)
        for i in range(3):
            for j in range(6):
                expect = sum(V[t, i] * X[t, j] for t in range(4))
                assert abs(out[i, j] - expect) <= 1e-12

    def test_dimension_mismatch(self, rng):
        V = rng.normal(size=(4, 3))
        with pytest.raises(DimensionMismatch):
            predict_semantic(V, rng.normal(size=(5, 2)))

    @pytest.mark.parametrize("scale", [1e300, np.inf, np.nan])
    def test_non_finite_predictions_raise_without_warnings(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="^predictions"):
                predict_semantic(np.full((2, 1), scale), np.full((2, 3), 1e300))


@settings(max_examples=25)
@given(
    d=st.integers(2, 6),
    p=st.integers(2, 5),
    seed=st.integers(0, 10_000),
    log_gamma=st.integers(-2, 2),
    log_eta=st.integers(-2, 2),
)
def test_closed_form_property(d, p, seed, log_gamma, log_eta):
    """The solver agrees with the Kronecker oracle across a drawn family."""
    rng = np.random.default_rng(seed)
    n = d + int(rng.integers(1, 10))
    k = int(rng.integers(2, 5))
    X = rng.normal(size=(d, n))
    K = rng.normal(size=(p, k))
    labels = rng.integers(0, k, size=n)
    Y = np.full((n, k), -1.0)
    Y[np.arange(n), labels] = 1.0
    gamma, eta = 10.0 ** log_gamma, 10.0 ** log_eta
    V = solve_ridge_map(X, K, Y, gamma, eta)
    V_star = kron_normal_equation_oracle(X, K, Y, gamma, eta)
    assert np.linalg.norm(V - V_star) <= 1e-8 * max(np.linalg.norm(V_star), 1e-30)


@settings(max_examples=60, deadline=None)
@given(
    wide_features=st.booleans(),
    wide_embeddings=st.booleans(),
    order=st.sampled_from("CF"),
    small=st.integers(1, 6),
    extra=st.integers(0, 5),
    seed=st.integers(0, 10_000),
    log_gamma=st.integers(-2, 2),
    log_eta=st.integers(-2, 2),
)
def test_reused_feature_side_gives_the_same_bytes(
        wide_features, wide_embeddings, order, small, extra, seed, log_gamma, log_eta):
    """A precomputed feature side changes no byte of the map, on all four
    branch pairs (d <= n or d > n, p <= k or p > k) and in C and Fortran order."""
    rng = np.random.default_rng(seed)
    d, n = (small + extra + 1, small) if wide_features else (small, small + extra)
    k = int(rng.integers(1, 6))
    p = k + int(rng.integers(1, 4)) if wide_embeddings else int(rng.integers(1, k + 1))
    X = np.asarray(rng.normal(size=(d, n)), order=order)
    K = np.asarray(rng.normal(size=(p, k)), order=order)
    Y = np.full((n, k), -1.0)
    Y[np.arange(n), rng.integers(0, k, size=n)] = 1.0
    Y = np.asarray(Y, order=order)
    gamma, eta = 10.0 ** log_gamma, 10.0 ** log_eta
    T = ridge_feature_side(X, Y, gamma)
    assert T.shape == (d, k) and not T.flags.writeable
    reused = solve_ridge_map(X, K, Y, gamma, eta, feature_side=T)
    assert reused.tobytes() == solve_ridge_map(X, K, Y, gamma, eta).tobytes()
