"""Zero-shot recognition with dual visual-semantic mapping paths.

The package learns a closed-form linear map from features to class
embeddings, measures how consistently inter-class relationships carry
over between the two spaces, pre-inspects embeddings for defects that
make unseen classes indistinguishable, and refines class prototypes
iteratively at training and test time.

Submodules are imported lazily so that the command line can cap BLAS
thread pools before ``numpy`` first loads.  ``synth.generate`` caps NumPy's
OpenBLAS at one thread while its SVDs and its QR run, and restores the
previous count after each; the cap is process-wide, so BLAS calls that
other Python threads make in that window run on one thread too.

OpenBLAS worker timeout
-----------------------
Every product, solve and eigenvalue computation runs in the OpenBLAS
that NumPy's wheel bundles (``libscipy_openblas64_``; ``dmap.linmap``
calls its ``dposv`` through ``ctypes``).
After a threaded call, idle OpenBLAS workers busy-wait for 2^28 cycles
(about 0.1 s) before they sleep, so the work that follows shares its
cores with spinning threads.  Importing this package therefore sets
``OPENBLAS_THREAD_TIMEOUT=4`` (2^4 cycles) when the variable is not
already set, so idle workers sleep at once.  A value in the environment
wins; set it before the process starts, e.g.
``OPENBLAS_THREAD_TIMEOUT=28 dmap pipeline ...``.  OpenBLAS reads the
variable when the library loads, so the default cannot reach a copy
loaded before ``dmap`` was imported: a program that imports ``numpy``
first keeps NumPy's workers spinning.  The timeout does not change how
OpenBLAS splits work between threads, so results are bit-identical.
"""

from __future__ import annotations

import os

# Set before any submodule loads NumPy's OpenBLAS; see the module docstring
# for why idle OpenBLAS workers must not spin.
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
