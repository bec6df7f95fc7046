"""Closed-form ridge map: oracle equivalence, optimality, and guards."""

import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmap import linmap
from dmap.consistency import consistency_report
from dmap.errors import DimensionMismatch, NumericalError, SingularSystem, ValidationError
from dmap.linmap import (
    COND_LIMIT,
    _gated_solve,
    _spd_solve,
    predict_semantic,
    ridge_feature_side,
    solve_ridge_map,
)
from dmap.model import DmapConfig, infer_transductive, train
from dmap.synth import SynthConfig, exact_recovery_setup, generate


def ridge_objective(V, X, K, Y, gamma, eta):
    """Objective value at ``V``."""
    fit = X.T @ V @ K - Y
    return float(
        np.sum(fit * fit)
        + gamma * np.sum((V @ K) ** 2)
        + eta * np.sum((X.T @ V) ** 2)
        + gamma * eta * np.sum(V * V)
    )


def stationarity_residual(V, X, K, Y, gamma, eta):
    """Gradient of the objective at ``V``; identically zero at the minimiser."""
    return (
        2.0 * X @ (X.T @ V @ K - Y) @ K.T
        + 2.0 * gamma * V @ (K @ K.T)
        + 2.0 * eta * (X @ X.T) @ V
        + 2.0 * gamma * eta * V
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

    def test_refused_gram_computes_no_right_hand_side(self):
        # X X^T overflows and so would X Y: the refusal comes first, without
        # NumPy's overflow warning.
        X = np.array([[1e308, 1e308, 1e308], [0.0, 1.0, 1.0]])
        Y = np.array([[1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystem, match=r"^feature Gram X X\^T has non-finite"):
                solve_ridge_map(X, np.eye(2), Y, 1.0, 1.0)

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


def eigvalsh_gate(gram, reg, what):
    """``A^-1`` behind the condition gate that computes every Gram's
    eigenvalues: the reference the trace-bound shortcut of ``_gated_solve``
    must match."""
    A = gram + reg * np.eye(gram.shape[0])
    if not np.all(np.isfinite(A)):
        raise SingularSystem(f"{what} has non-finite entries; rescale the inputs")
    eigs = np.abs(scipy.linalg.eigvalsh(A))
    lo, hi = eigs.min(), eigs.max()
    cond = np.inf if lo == 0.0 else hi / lo
    if cond > COND_LIMIT:
        raise SingularSystem(
            f"{what} has condition ~{cond:.3g} (limit {COND_LIMIT:.3g}); "
            "increase the regulariser"
        )
    try:
        factor = scipy.linalg.cho_factor(A, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystem(f"{what}: Cholesky factorisation failed: {exc}") from exc
    return scipy.linalg.cho_solve(factor, np.eye(A.shape[0]))


def gated_inverse(B, reg, what):
    """``A^-1`` from the gated solve, a solve against the identity."""
    return _gated_solve(B, reg, lambda: np.eye(B.shape[0]), what)


def outcome(solve, *args):
    """Everything of a solve's result a later product could see (bytes,
    shape, memory order), or its ``SingularSystem`` and message."""
    try:
        x = solve(*args)
    except SingularSystem as exc:
        return type(exc), str(exc)
    return x.tobytes(), x.shape, x.flags.c_contiguous, x.flags.f_contiguous


#: ``reg / trace``: zero, ``1e-14`` and up, or just above ``1 / COND_LIMIT``,
#: where the trace bound ``(t + reg) / reg`` sits just under the limit.
REG_OVER_TRACE = (st.just(0.0) | st.floats(-14, 1).map(lambda e: 10.0 ** e)
                  | st.floats(0, 1e-3).map(lambda x: (1 + x) / COND_LIMIT))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=2000)
@given(
    short=st.integers(1, 8),
    extra=st.integers(0, 32),
    wide=st.booleans(),
    decades=st.floats(0, 9),
    log_scale=st.floats(-175, 160),
    reg_over_trace=REG_OVER_TRACE,
    seed=st.integers(0, 2 ** 32 - 1),
)
# A subnormal regulariser: the Gram's underflow errors are absolute and
# eigvalsh refuses, although the relative bound alone would certify.
@example(short=4, extra=11, wide=False, decades=0.0, log_scale=-157.53774516155872,
         reg_over_trace=10.0 ** -11.137555966175903, seed=1919047014)
@example(short=4, extra=31, wide=True, decades=9.0, log_scale=-157.37295291323932,
         reg_over_trace=10.0 ** -10.637021338145605, seed=239968261)
# Nearly rank one with (t + reg) / reg just under COND_LIMIT: eigvalsh's
# rounding of the smallest eigenvalue refuses, so certifying needs the slack.
@example(short=3, extra=31, wide=False, decades=9.0, log_scale=4.387518284798846,
         reg_over_trace=(1 + 2.2617728887002753e-05) / COND_LIMIT, seed=3629346541)
@example(short=1, extra=15, wide=False, decades=0.0, log_scale=3.6986739370039654,
         reg_over_trace=(1 + 0.00019734886477676373) / COND_LIMIT, seed=2415876439)
def test_trace_bound_gate_matches_the_eigvalsh_gate(short, extra, wide, decades, log_scale,
                                                    reg_over_trace, seed):
    """Same acceptance, same refusal message, same bytes of ``A^-1`` as the
    gate that always computes eigenvalues, for ``B`` much wider (``m >> r``) or
    much taller than it is long, singular values spread over ``decades``,
    entries from the subnormal range to a Gram that overflows, and ``reg``
    from zero up."""
    rng = np.random.default_rng(seed)
    r, m = (short, 4 * short + extra) if wide else (4 * short + extra, short)
    q = min(r, m)
    B = (rng.normal(size=(r, q)) * np.logspace(0, -decades, q)) @ rng.normal(size=(q, m))
    B *= 10.0 ** log_scale
    gram = B @ B.T
    reg = float(np.trace(gram) * reg_over_trace)
    expected = outcome(eigvalsh_gate, gram, reg, "Gram")
    assert outcome(gated_inverse, B, reg, "Gram") == expected


def count_eigvalsh_calls(monkeypatch):
    calls = []
    eigvalsh = scipy.linalg.eigvalsh
    monkeypatch.setattr(scipy.linalg, "eigvalsh",
                        lambda *args, **kwargs: calls.append(args) or eigvalsh(*args, **kwargs))
    return calls


def test_unit_regularisers_skip_the_eigenvalues(monkeypatch):
    # The awa-api benchmark world: X X^T is 768 x 768 over 1,600 instances.
    world = generate(SynthConfig(d=768, p=85, k=40, l=10, n_per_class=40,
                                 noise_sigma=0.05, irc_distortion=0.2, seed=1))
    calls = count_eigvalsh_calls(monkeypatch)
    train(world.train, DmapConfig(m=20, gamma=1.0, eta=1.0, train_max_iter=2))
    assert calls == []


def test_tiny_regularisers_compute_the_eigenvalues(monkeypatch):
    synth_cfg, run_cfg = exact_recovery_setup(seed=0)
    world = generate(synth_cfg)
    calls = count_eigvalsh_calls(monkeypatch)
    train(world.train, run_cfg)
    assert len(calls) >= 1


# --- the solve against scipy.linalg --------------------------------------------

def scipy_solve(A, b, failure):
    """The reference: ``cho_solve(cho_factor(A, lower=True), b)`` of
    ``scipy.linalg``, a failed factor raised as ``_spd_solve`` raises it."""
    try:
        factor = scipy.linalg.cho_factor(A, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystem(f"{failure}: {exc}") from exc
    return scipy.linalg.cho_solve(factor, b)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 300),
    extra=st.integers(0, 40),
    nrhs=st.none() | st.integers(1, 40),
    fortran_a=st.booleans(),
    fortran_b=st.booleans(),
    log_reg=st.floats(-8, 1),
    broken=st.none() | st.integers(0, 299),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_spd_solve_matches_scipy(n, extra, nrhs, fortran_a, fortran_b, log_reg, broken, seed):
    """Same solution bytes, shape and memory order, same refusal message as
    ``scipy.linalg.cho_solve(scipy.linalg.cho_factor(A, lower=True), b)``,
    for C- and Fortran-ordered inputs and 1-D and 2-D right-hand sides."""
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, n + extra))
    A = B @ B.T + 10.0 ** log_reg * np.eye(n)
    # Junk above the diagonal: both solves read only the lower triangle.
    A[np.triu_indices(n, 1)] = rng.normal(size=n * (n - 1) // 2)
    if broken is not None:
        A[broken % n, broken % n] *= -1.0  # the (broken % n + 1)-th leading minor fails
    A = np.asarray(A, order="F" if fortran_a else "C")
    b = rng.normal(size=(n,) if nrhs is None else (n, nrhs))
    b = np.asarray(b, order="F" if fortran_b else "C")
    expected = outcome(scipy_solve, A, b, "Gram")
    inputs = A.tobytes(), b.tobytes()
    assert outcome(_spd_solve, A, b, "Gram") == expected
    assert (A.tobytes(), b.tobytes()) == inputs  # LAPACK works on copies
    if broken is not None:
        message = f"Gram: {broken % n + 1}-th leading minor of the array is not positive definite"
        assert expected == (SingularSystem, message)


@pytest.mark.parametrize("bundled", [True, False], ids=["dposv", "scipy.linalg"])
def test_spd_solve_refuses_a_non_finite_right_hand_side(monkeypatch, bundled):
    if not bundled:
        monkeypatch.setattr(linmap, "_openblas_dposv", lambda: None)
    with pytest.raises(ValueError, match="infs or NaNs"):
        _spd_solve(np.eye(2), np.array([1.0, np.nan]), "Gram")


#: The ``cub-cli`` bench world and the flags its pipeline runs with.
CUB_CLI_WORLD = SynthConfig(d=256, p=160, k=150, l=50, n_per_class=10, noise_sigma=0.05,
                            irc_distortion=0.2, seed=1)
CUB_CLI_CONFIG = DmapConfig(m=10, gamma=1.0, eta=1.0, test_max_iter=3)


def test_without_the_bundled_library_scipy_linalg_gives_the_same_bytes(monkeypatch):
    world = generate(CUB_CLI_WORLD)
    K_u = world.embeddings.subset(world.split.unseen)
    all_X = np.concatenate([world.train.features.data, world.test_features.data], axis=1)
    all_labels = tuple(world.train.labels) + tuple(world.test_labels)

    def run():
        model = train(world.train, CUB_CLI_CONFIG)
        pred, protos = infer_transductive(model, world.test_features, K_u)
        report = consistency_report(all_X, all_labels, world.split, world.embeddings,
                                    CUB_CLI_CONFIG.lam)
        arrays = (model.f_s, model.f_tilde, model.k_tilde_s.data, pred.score_matrix, protos.data)
        return [a.tobytes() for a in arrays], pred.predicted_class, report

    assert linmap._openblas_dposv() is not None
    direct = run()
    calls = []
    for name in ("cho_factor", "cho_solve"):
        routine = getattr(scipy.linalg, name)
        monkeypatch.setattr(scipy.linalg, name, lambda *args, _routine=routine, **kwargs:
                            calls.append(_routine) or _routine(*args, **kwargs))
    monkeypatch.setattr(linmap, "_openblas_dposv", lambda: None)
    assert run() == direct
    assert len(set(calls)) == 2
