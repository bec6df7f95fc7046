"""Reference implementations shared by the test modules."""

import ctypes
import functools
import os
from dataclasses import replace

import numpy as np

from dmap import linmap


def with_config(model, **changes):
    """``model`` with ``changes`` made to its ``DmapConfig``: inference reads
    ``mode`` and ``test_max_iter`` from the model it runs."""
    return replace(model, config=replace(model.config, **changes))


def prediction_to_dict(prediction, mode):
    """The JSON object whose ``json.dumps(..., sort_keys=True, indent=2)``
    bytes ``dmap.io.save_prediction`` writes."""
    return {
        "mode": mode,
        "instance_ids": list(prediction.instance_ids),
        "predicted": list(prediction.predicted_class),
        "candidates": list(prediction.candidate_ids),
        "scores": np.asarray(prediction.score_matrix, dtype=np.float64).tolist(),
    }


@functools.cache
def numpy_openblas():
    """The OpenBLAS that NumPy has mapped into this process, as a ``ctypes``
    library, or ``None`` when ``dmap`` does not solve with it (and falls
    back to ``numpy.linalg``).  Found in ``/proc/self/maps``, independently
    of how ``dmap.linmap`` finds it."""
    if linmap._openblas_dposv() is None:
        return None
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if len(line.split()) == 6}
    [path] = [path for path in paths
              if os.path.basename(path).startswith("libscipy_openblas64_")]
    lib = ctypes.CDLL(path)
    # Fortran calling convention: every argument by reference, then the
    # hidden length of the character argument UPLO.
    num, buf = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    lib.scipy_dpotrf_64_.argtypes = [ctypes.c_char_p, num, buf, num, num, ctypes.c_size_t]
    lib.scipy_dpotrs_64_.argtypes = [ctypes.c_char_p, num, num, buf, num, buf, num, num,
                                     ctypes.c_size_t]
    lib.scipy_dpotrf_64_.restype = lib.scipy_dpotrs_64_.restype = None
    return lib


def cholesky_solve(A, b):
    """``cho_solve(cho_factor(A, lower=True), b)`` in the LAPACK that
    ``dmap``'s solves call: ``dpotrf``, then ``dpotrs`` on the factor, two
    separate calls of NumPy's OpenBLAS on Fortran-ordered copies, or
    where ``dmap`` falls back to ``numpy.linalg``, its Cholesky factor and
    two general solves on it.  A failed factor raises ``LinAlgError`` with
    LAPACK's or NumPy's message."""
    lib = numpy_openblas()
    if lib is None:
        L = np.linalg.cholesky(A)
        return np.linalg.solve(L.T, np.linalg.solve(L, b))
    a = np.array(A, dtype=np.float64, order="F")
    x = np.array(b, dtype=np.float64, order="F")
    n, ld, info = ctypes.c_int64(a.shape[0]), ctypes.c_int64(max(1, a.shape[0])), ctypes.c_int64()
    nrhs = ctypes.c_int64(x.shape[1] if x.ndim == 2 else 1)
    lib.scipy_dpotrf_64_(b"L", n, a.ctypes.data, ld, info, 1)
    if info.value > 0:
        raise np.linalg.LinAlgError(
            f"{info.value}-th leading minor of the array is not positive definite")
    assert info.value == 0
    lib.scipy_dpotrs_64_(b"L", n, nrhs, a.ctypes.data, ld, x.ctypes.data, ld, info, 1)
    assert info.value == 0
    return x
