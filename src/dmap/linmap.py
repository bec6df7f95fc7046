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

Every regularised Gram matrix passes the ``COND_LIMIT`` condition gate
before it is factorised.  Its eigenvalues are computed only when a bound
read from the Gram's trace cannot certify that the gate passes; with a
regulariser far above ``trace / COND_LIMIT``, as at unit ``gamma`` and
``eta``, the solve goes straight to the Cholesky factor.  Refusals, their
messages and the solutions are the same either way (see
:func:`_gated_solve`).

The feature side ``T = (X X^T + gamma I)^-1 X Y`` depends only on ``X``,
``Y`` and ``gamma``, so fits that differ only in ``K`` (the rounds of the
dual-path training) compute it once with :func:`ridge_feature_side`.
Every such map is ``V = T E`` (``E`` the ``k x p`` embedding side), so its
columns lie in span(T), a ``k``-dimensional space: ``dmap.model.train``
reads their predictions ``V^T X`` as ``(Q^T V)^T (Q^T X)``, with ``Q`` the
reduced QR factor of ``T``, wherever that takes fewer flops.

Each solve, the relationship solves of :mod:`dmap.consistency` included,
is one call of LAPACK ``dposv`` (``dpotrf``, then ``dpotrs`` on the factor)
in the OpenBLAS that NumPy's wheel bundles
(``numpy.libs/libscipy_openblas64_-*.so``, 64-bit integer arguments),
through ``ctypes``; the eigenvalues of an uncertified gate come from
``numpy.linalg.eigvalsh``.  That library already runs every NumPy
product, so a ``dmap`` process holds one OpenBLAS.  Where ``numpy.libs``
does not hold exactly one such library, as with NumPy < 2 wheels, conda
or a distro NumPy, each solve is ``numpy.linalg.cholesky`` followed by
two ``numpy.linalg.solve`` calls on the factor: the same solution up to
rounding, in whatever LAPACK that NumPy links.  No solve needs SciPy.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from pathlib import Path

import numpy as np

from .core import _finite_result, _hand_over, _require_matrices, as_array
from .errors import DimensionMismatch, SingularSystem, ValidationError

#: Gram matrices with estimated condition above this are refused.
COND_LIMIT = 1e12

#: Held by :func:`_one_blas_thread` from reading the thread count to
#: restoring it, so that two Python threads cannot restore each other's cap.
#: Re-entrant, so that a cap nested in another on the same thread returns.
_THREAD_COUNT_LOCK = threading.RLock()


@functools.cache
def _numpy_openblas():
    """The OpenBLAS that NumPy's wheel bundles, built with 64-bit integer
    arguments, as a ``ctypes`` library, or ``None`` when ``numpy.libs`` does
    not hold exactly one such library.  NumPy has already mapped the
    library, so this adds no second copy to the process."""
    libs = list((Path(np.__file__).parent.parent / "numpy.libs")
                .glob("libscipy_openblas64_-*.so"))
    if len(libs) != 1:
        return None
    try:
        return ctypes.CDLL(str(libs[0]))
    except OSError:
        return None


@functools.cache
def _openblas_dposv():
    """LAPACK ``dposv`` of :func:`_numpy_openblas`, or ``None`` when that
    library is missing or lacks the routine."""
    posv = getattr(_numpy_openblas(), "scipy_dposv_64_", None)
    if posv is None:
        return None
    # Fortran calling convention: every argument by reference, then the
    # hidden length of the character argument UPLO.
    num, buf = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    posv.argtypes = [ctypes.c_char_p, num, num, buf, num, buf, num, num, ctypes.c_size_t]
    posv.restype = None
    return posv


@contextlib.contextmanager
def _one_blas_thread():
    """Cap :func:`_numpy_openblas` at one thread inside the block, then
    restore the count it had.  The cap is process-wide: BLAS calls that
    other Python threads make meanwhile run on one thread too, and their
    own capped blocks wait for this one.  A block nested in a capped block
    of the same thread enters at once and restores the outer cap.  Where
    the library or its thread routines are missing, the block runs as it
    is."""
    lib = _numpy_openblas()
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    set_threads = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if get is None or set_threads is None:
        yield
        return
    with _THREAD_COUNT_LOCK:
        previous = get()
        set_threads(1)
        try:
            yield
        finally:
            set_threads(previous)


def _spd_solve(A: np.ndarray, b: np.ndarray, failure: str) -> np.ndarray:
    """``A^-1 b`` for a finite square ``A``, read from its lower triangle, and
    a 1-D or 2-D ``b``, in a new array: ``dposv`` of NumPy's OpenBLAS, on
    Fortran-ordered copies, or where that library is missing
    ``L^-T (L^-1 b)`` with ``L = numpy.linalg.cholesky(A)``.

    Raises ``SingularSystem`` with ``failure``, a colon and LAPACK's or
    NumPy's message when ``A`` is not positive definite, and ``ValueError``
    for a non-finite ``b`` or for shapes that do not match.
    """
    x = np.asarray_chkfinite(b, dtype=np.float64)
    if x.ndim not in (1, 2) or A.shape != (x.shape[0],) * 2:
        raise ValueError(f"incompatible dimensions ({A.shape} and {x.shape})")
    posv = _openblas_dposv()
    if posv is None:
        try:
            L = np.linalg.cholesky(A)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"{failure}: {exc}") from exc
        return np.linalg.solve(L.T, np.linalg.solve(L, x))
    a = np.array(A, dtype=np.float64, order="F")
    x = np.array(x, order="F")
    n, ld, info = ctypes.c_int64(a.shape[0]), ctypes.c_int64(max(1, a.shape[0])), ctypes.c_int64()
    nrhs = ctypes.c_int64(x.shape[1] if x.ndim == 2 else 1)
    # dpotrf, then dpotrs on the factor.
    posv(b"L", n, nrhs, a.ctypes.data, ld, x.ctypes.data, ld, info, 1)
    if info.value > 0:
        raise SingularSystem(
            f"{failure}: {info.value}-th leading minor of the array is not positive definite")
    if info.value < 0:
        raise ValueError(f"illegal value in {-info.value}th argument of internal posv")
    return x


def _gated_solve(B: np.ndarray, reg: float, rhs, what: str) -> np.ndarray:
    """``A^-1 rhs()`` for ``A = B B^T + reg*I``, after a finiteness and a
    conditioning check of ``A``, through :func:`_spd_solve`.

    ``B`` is ``r x m``, contracted over ``m``, and the Gram product is
    ``B @ B.T``: exactly ``X @ X.T`` for ``B = X`` and ``X.T @ X`` for
    ``B = X.T``.  ``rhs`` returns the right-hand side; it is called only
    once ``A`` has passed both checks, so a refused Gram computes no more.
    Refusals raise ``SingularSystem`` naming ``what``.

    The gate refuses ``A`` when ``max|lambda| / min|lambda|`` of its
    computed eigenvalues exceeds ``COND_LIMIT``.  The eigenvalues are
    computed only when a one-pass bound cannot certify the answer.  Let
    ``t`` be the trace of the computed Gram ``G = fl(B B^T)`` and ``eps``
    the float64 machine epsilon, ``u = eps/2``.  The exact ``B B^T + reg*I``
    has every eigenvalue in ``[reg, ||B||_F^2 + reg]``, and ``||B||_F^2``
    is ``t`` up to a relative ``(m + r) u`` (the diagonal's inner products
    and the trace's sum).  Three roundings move the eigenvalues that
    ``eigvalsh`` would return from there (Weyl's theorem bounds each move
    by the 2-norm of its perturbation):

    * the product: ``||G - B B^T||_2 <= gamma_m ||B||_F^2`` with
      ``gamma_m = m u / (1 - m u)`` (Higham, *Accuracy and Stability of
      Numerical Algorithms*, 2nd ed., section 3.5);
    * adding ``reg`` to the diagonal: at most ``u (t + reg)``;
    * ``eigvalsh`` itself, which is backward stable: it returns the exact
      eigenvalues of ``A + F`` with ``||F||_2 <= p(r) u ||A||_2`` and
      ``||A||_2 <= t + reg`` to first order.  LAPACK states ``p(r)`` only
      as a modestly growing function of ``r``; the bound assumes
      ``p(r) <= 6r``.  ``numpy.linalg.eigvalsh`` calls ``dsyevd`` with
      ``JOBZ='N'``, which reduces ``A`` to tridiagonal form (``dsytrd``)
      and takes its eigenvalues with ``dsterf``: the same two steps as
      ``dsyevr``, ``scipy.linalg.eigvalsh``'s default, so the assumption
      made for that routine carries over.

    Their sum, second-order terms included, is below
    ``s = c (m + r) eps (t + reg)`` with ``c = 4``.  So when ``reg - s > 0``
    every computed eigenvalue is positive and ``(t + reg + s) / (reg - s)``
    bounds the computed ratio; at or below ``COND_LIMIT / 2`` (the factor
    2 absorbs the rounding of the bound and of the gate's own division)
    the gate cannot refuse, and ``A`` goes straight to the solve.

    These rounding errors are relative only while nothing underflows: a
    product in the subnormal range errs by up to ``2^-1075`` absolutely, so
    ``fl(B B^T)`` can be off by ``r m 2^-1075`` in norm, which a subnormal
    ``reg`` would not cover.  The bound is therefore used only when
    ``reg * eps`` is a normal number (``reg`` above about ``1e-292``),
    where that term lies far below ``s``.  Anything else, ``reg = 0`` and
    regularisers near ``t / COND_LIMIT`` included, computes the
    eigenvalues and compares their ratio with ``COND_LIMIT``.
    """
    # A non-finite A is refused below; an overflowing trace certifies nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        A = B @ B.T
        t = np.trace(A)
        # A = gram + reg * np.eye(r), byte for byte, in the Gram's buffer:
        # reg * 0.0 is each off-diagonal entry of reg * np.eye(r) (a signed
        # zero, or NaN for an infinite reg), then the diagonal gets reg.
        A += reg * 0.0
        A.flat[::A.shape[0] + 1] += reg
    if not np.all(np.isfinite(A)):
        raise SingularSystem(f"{what} has non-finite entries; rescale the inputs")
    eps = np.finfo(np.float64).eps
    s = 4 * sum(B.shape) * eps * (t + reg)
    certified = (reg * eps > np.finfo(np.float64).tiny and reg - s > 0
                 and (t + reg + s) / (reg - s) <= COND_LIMIT / 2)
    if not certified:
        # Symmetric eigenvalues give the exact 2-norm condition number at
        # these sizes; an ill-conditioned Gram matrix means the closed form
        # would amplify noise by ~cond, so refuse rather than return junk.
        try:
            eigs = np.abs(np.linalg.eigvalsh(A))
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise SingularSystem(f"{what}: eigenvalue estimation failed: {exc}") from exc
        lo, hi = eigs.min(), eigs.max()
        cond = np.inf if lo == 0.0 else hi / lo
        if cond > COND_LIMIT:
            raise SingularSystem(
                f"{what} has condition ~{cond:.3g} (limit {COND_LIMIT:.3g}); "
                "increase the regulariser"
            )
    return _spd_solve(A, rhs(), f"{what}: Cholesky factorisation failed")


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
        T = _gated_solve(X, gamma, lambda: X @ Y, "feature Gram X X^T")
    else:
        T = X @ _gated_solve(X.T, gamma, lambda: Y, "feature Gram X^T X")
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
        V = _gated_solve(K, eta, lambda: (T @ K.T).T, "embedding Gram K K^T").T
    else:
        V = T @ _gated_solve(K.T, eta, lambda: K.T, "embedding Gram K^T K")
    # Both forms are new float64 arrays that nothing else holds; the p <= k
    # form is a view of the solve's result, which is handed over with it.
    return _hand_over(np.ascontiguousarray(V))


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
