"""Zero-shot recognition with dual visual-semantic mapping paths.

The package learns a closed-form linear map from features to class
embeddings, measures how consistently inter-class relationships carry
over between the two spaces, pre-inspects embeddings for defects that
make unseen classes indistinguishable, and refines class prototypes
iteratively at training and test time.

Submodules are imported lazily so that the command line can cap BLAS
thread pools before ``numpy`` first loads.

OpenBLAS worker timeout
-----------------------
NumPy's and SciPy's wheels each bundle their own OpenBLAS (NumPy's
``libscipy_openblas64_``, SciPy's ``libscipy_openblas``, the latter
loaded by ``scipy.linalg``).  After a threaded call, each library's idle
workers busy-wait for 2^28 cycles (about 0.1 s) before they sleep, so a
SciPy solve that follows a NumPy GEMM, or the reverse, shares its cores
with the other library's spinning threads.  Importing this package
therefore sets ``OPENBLAS_THREAD_TIMEOUT=4`` (2^4 cycles) when the
variable is not already set, so idle workers sleep at once.  A value in
the environment wins; set it before the process starts, e.g.
``OPENBLAS_THREAD_TIMEOUT=28 dmap pipeline ...``.  OpenBLAS reads the
variable when the library loads, so the default cannot reach a copy
loaded before ``dmap`` was imported: a program that imports ``numpy``
first keeps NumPy's workers spinning, one that imports ``scipy.linalg``
first keeps SciPy's.  The timeout does not change how OpenBLAS splits
work between threads, so results are bit-identical.  Measured with the
``perfbench`` medians on 2 vCPUs, ``wall_s`` went from 0.45 s to 0.26 s
on ``awa-api`` (whose worker imports ``numpy`` first, so only SciPy's
copy changed), 0.23 s to 0.11 s on ``many-gzsr`` and 1.53 s to 1.35 s
on ``cub-cli``.
"""

from __future__ import annotations

import os

# Set before any submodule imports NumPy or scipy.linalg; see the module
# docstring for why idle OpenBLAS workers must not spin.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

__version__ = "0.1.0"

_EXPORTS = {
    # core containers and helpers
    "FeatureMatrix": "core",
    "EmbeddingMatrix": "core",
    "ClassSplit": "core",
    "LabeledDataset": "core",
    "class_mean_prototypes": "core",
    "build_label_matrix": "core",
    "l2_normalize_columns": "core",
    "center_columns": "core",
    # closed-form mapping
    "solve_ridge_map": "linmap",
    "ridge_feature_side": "linmap",
    "predict_semantic": "linmap",
    "ridge_objective": "linmap",
    "stationarity_residual": "linmap",
    # relationship consistency and pre-inspection
    "DefectReport": "consistency",
    "build_relationship_matrix": "consistency",
    "consistency_measure": "consistency",
    "irc_gap": "consistency",
    "consistency_report": "consistency",
    "project_onto_seen_span": "consistency",
    "preinspect": "consistency",
    # model
    "DmapConfig": "model",
    "DmapModel": "model",
    "Prediction": "model",
    "knn_prototype": "model",
    "train": "model",
    "infer_inductive": "model",
    "infer_transductive": "model",
    "transductive_rounds": "model",
    "CZSR": "model",
    "GZSR": "model",
    # evaluation
    "EvalReport": "evaluation",
    "evaluate": "evaluation",
    # synthetic data
    "PortableRng": "synth",
    "SynthConfig": "synth",
    "SynthDataset": "synth",
    "generate": "synth",
    "exact_recovery_setup": "synth",
    "noisy_setup": "synth",
    "defect_setup": "synth",
    # errors
    "DmapError": "errors",
    "ValidationError": "errors",
    "MissingClass": "errors",
    "UnknownLabel": "errors",
    "UnknownClass": "errors",
    "MissingInstance": "errors",
    "DimensionMismatch": "errors",
    "EmptyTestSet": "errors",
    "InfeasibleConfig": "errors",
    "NumericalError": "errors",
    "SingularSystem": "errors",
    "FileFormatError": "errors",
    "ParseError": "errors",
    "ShapeMismatch": "errors",
}

__all__ = sorted(_EXPORTS) + ["io", "__version__"]


def __getattr__(name):
    if name == "io":
        from importlib import import_module

        return import_module(".io", __name__)
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    return getattr(module, name)


def __dir__():
    return __all__
