"""Closed-form learning of linear visual-semantic maps.

The map ``f(x) = V^T x`` is fit by minimising

    ||X^T V K - Y||_F^2 + gamma ||V K||_F^2 + eta ||X^T V||_F^2
        + gamma * eta * ||V||_F^2

over ``V`` (``d x p``), where ``X`` is ``d x n`` (instances in columns),
``K`` is ``p x k`` (class embeddings in columns) and ``Y`` is the
``n x k`` {-1,+1} label matrix.  Setting the gradient to zero gives

    (X X^T + gamma I) V (K K^T + eta I) = X Y K^T,

so the minimiser is obtained exactly from two symmetric positive-definite
solves — no iterative optimisation is involved.

Each solve factorises whichever Gram matrix of its side is smaller,
using the push-through identity ``(B B^T + rI)^-1 B = B (B^T B + rI)^-1``.
Besides the size these forms differ numerically: when ``K`` has fewer
columns than rows, ``K K^T + eta I`` carries null-space eigenvalues equal
to ``eta``, and solving against it amplifies any rounding noise present
in the right-hand side by ``1/eta`` along directions outside span(K).
The ``K^T K + eta I`` form never touches those directions — the result
is a combination of columns of ``K`` by construction — which keeps
``V^T x`` inside span(K) to machine precision, exactly as the algebra
says it must be.

The feature side ``T = (X X^T + gamma I)^-1 X Y`` depends only on ``X``,
``Y`` and ``gamma``, so fits that differ only in ``K`` (the rounds of the
dual-path training) compute it once with :func:`ridge_feature_side`.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .core import _finite_result, _freeze, as_array
from .errors import DimensionMismatch, SingularSystem, ValidationError

#: Gram matrices with estimated condition above this are refused.
COND_LIMIT = 1e12


def _spd_cholesky(gram: np.ndarray, reg: float, what: str):
    """Factor ``gram + reg*I`` after a finiteness and a conditioning check."""
    A = gram + reg * np.eye(gram.shape[0])
    if not np.all(np.isfinite(A)):
        raise SingularSystem(f"{what} has non-finite entries; rescale the inputs")
    # Symmetric eigenvalues give the exact 2-norm condition number at
    # these sizes; an ill-conditioned Gram matrix means the closed form
    # would amplify noise by ~cond, so refuse rather than return junk.
    try:
        eigs = np.abs(scipy.linalg.eigvalsh(A))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise SingularSystem(f"{what}: eigenvalue estimation failed: {exc}") from exc
    lo, hi = eigs.min(), eigs.max()
    cond = np.inf if lo == 0.0 else hi / lo
    if cond > COND_LIMIT:
        raise SingularSystem(
            f"{what} has condition ~{cond:.3g} (limit {COND_LIMIT:.3g}); "
            "increase the regulariser"
        )
    try:
        return scipy.linalg.cho_factor(A, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystem(f"{what}: Cholesky factorisation failed: {exc}") from exc


def _require_matrices(**arrays: np.ndarray) -> None:
    """Refuse empty or non-2-D inputs, naming every shape."""
    if any(a.ndim != 2 or 0 in a.shape for a in arrays.values()):
        shapes = ", ".join(f"{name} is {a.shape}" for name, a in arrays.items())
        raise ValidationError(f"{shapes}: each must be a non-empty 2-D matrix")


def ridge_feature_side(X, Y, gamma: float) -> np.ndarray:
    """The feature side ``T = (X X^T + gamma I)^-1 X Y`` of the ridge map,
    ``d x k`` and read-only, for features ``X`` (``d x n``), the ``n x k``
    +-1 labels ``Y`` and ``gamma >= 0``.

    Pass it as ``feature_side=`` to :func:`solve_ridge_map` for every map
    fit on the same ``X``, ``Y`` and ``gamma``.  Raises ``SingularSystem``
    when the regularised Gram matrix is refused, as that function does.
    """
    X, Y = as_array(X), as_array(Y)
    if gamma < 0:
        raise ValidationError("gamma must be nonnegative")
    _require_matrices(X=X, Y=Y)
    if X.shape[1] != Y.shape[0]:
        raise DimensionMismatch(
            f"X is {X.shape}, Y is {Y.shape}: need X columns == Y rows"
        )
    d, n = X.shape
    if d <= n:
        cho_x = _spd_cholesky(X @ X.T, gamma, "feature Gram X X^T")
        T = scipy.linalg.cho_solve(cho_x, X @ Y)
    else:
        cho_x = _spd_cholesky(X.T @ X, gamma, "feature Gram X^T X")
        T = X @ scipy.linalg.cho_solve(cho_x, Y)
    T.setflags(write=False)
    return T


def solve_ridge_map(X, K, Y, gamma: float, eta: float, *,
                    feature_side=None) -> np.ndarray:
    """Exact minimiser of the doubly regularised ridge objective.

    Parameters
    ----------
    X : FeatureMatrix or array_like, shape (d, n)
    K : EmbeddingMatrix or array_like, shape (p, k)
    Y : array_like, shape (n, k)
        The +-1 label array of :func:`dmap.core.build_label_matrix`.
    gamma, eta : float
        Nonnegative regularisers on the feature-side and embedding-side
        Gram matrices respectively.
    feature_side : array_like, shape (d, k), optional
        ``ridge_feature_side(X, Y, gamma)``, computed once by the caller;
        when omitted it is computed here.  The result is the same bytes
        either way.

    Returns
    -------
    numpy.ndarray, shape (d, p)
        ``V = (X X^T + gamma I)^-1 X Y K^T (K K^T + eta I)^-1``, read-only,
        float64 and C-contiguous; the map is ``f(x) = V^T x``.

    Raises
    ------
    SingularSystem
        If either regularised Gram matrix is non-finite, ill-conditioned
        beyond ``COND_LIMIT`` or fails to factorise.
    """
    X, K, Y = as_array(X), as_array(K), as_array(Y)
    if gamma < 0 or eta < 0:
        raise ValidationError("gamma and eta must be nonnegative")
    _require_matrices(X=X, K=K, Y=Y)
    if X.shape[1] != Y.shape[0] or K.shape[1] != Y.shape[1]:
        raise DimensionMismatch(
            f"X is {X.shape}, K is {K.shape}, Y is {Y.shape}: "
            "need X columns == Y rows and K columns == Y columns"
        )
    p, k = K.shape
    if feature_side is None:
        T = ridge_feature_side(X, Y, gamma)
    else:
        T = as_array(feature_side)
        if T.shape != (X.shape[0], k):
            raise DimensionMismatch(
                f"feature_side is {T.shape}, need {(X.shape[0], k)} "
                f"for X {X.shape} and K {K.shape}"
            )
    # Embedding side: V = T K^T (K K^T + eta I)^-1.  In the k < p case the
    # solve happens before the final multiplication, so V's embedding-side
    # rows are combinations of K's columns by construction and the
    # feature-side solve's rounding cannot escape span(K).
    if p <= k:
        cho_k = _spd_cholesky(K @ K.T, eta, "embedding Gram K K^T")
        V = scipy.linalg.cho_solve(cho_k, (T @ K.T).T).T
    else:
        cho_k = _spd_cholesky(K.T @ K, eta, "embedding Gram K^T K")
        V = T @ scipy.linalg.cho_solve(cho_k, K.T)
    return _freeze(V)


def predict_semantic(V, X) -> np.ndarray:
    """Apply the map ``V`` (``d x p``) to every column: returns ``V^T X`` with shape (p, n).

    Raises ``NumericalError`` when a prediction is not finite."""
    V, X = as_array(V), as_array(X)
    if V.shape[0] != X.shape[0]:
        raise DimensionMismatch(
            f"map expects {V.shape[0]}-dimensional features, got {X.shape[0]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_result(V.T @ X, "predictions")


def ridge_objective(V, X, K, Y, gamma: float, eta: float) -> float:
    """Objective value at ``V`` (used by tests and diagnostics)."""
    V, X, K, Y = as_array(V), as_array(X), as_array(K), as_array(Y)
    fit = X.T @ V @ K - Y
    return float(
        np.sum(fit * fit)
        + gamma * np.sum((V @ K) ** 2)
        + eta * np.sum((X.T @ V) ** 2)
        + gamma * eta * np.sum(V * V)
    )


def stationarity_residual(V, X, K, Y, gamma: float, eta: float) -> np.ndarray:
    """Gradient of the objective at ``V``; identically zero at the minimiser."""
    V, X, K, Y = as_array(V), as_array(X), as_array(K), as_array(Y)
    return (
        2.0 * X @ (X.T @ V @ K - Y) @ K.T
        + 2.0 * gamma * V @ (K @ K.T)
        + 2.0 * eta * (X @ X.T) @ V
        + 2.0 * gamma * eta * V
    )
