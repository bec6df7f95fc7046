"""Zero-shot recognition with dual visual-semantic mapping paths.

The package learns a closed-form linear map from features to class
embeddings, measures how consistently inter-class relationships carry
over between the two spaces, pre-inspects embeddings for defects that
make unseen classes indistinguishable, and refines class prototypes
iteratively at training and test time.

Submodules are imported lazily so that the command line can cap BLAS
thread pools before ``numpy`` first loads.
"""

from __future__ import annotations

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
