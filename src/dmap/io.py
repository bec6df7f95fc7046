"""File formats: text matrices, JSON splits/labels/configs/reports, CSV
summaries, and model/dataset directories.

The matrix format is a plain text file whose first line is
``dmap-matrix 1 <rows> <cols>`` followed by ``rows`` lines of ``cols``
space-separated decimal floats.  Floats are printed in the shortest
representation that round-trips, so ``parse(serialize(M))`` reproduces
``M`` bit-exactly for finite doubles.  Files ending in ``.gz`` are
gzip-wrapped transparently.  Everything written by this module is
deterministic: JSON keys are sorted, floats use ``repr``, and no
timestamps or environment details are embedded.
"""

from __future__ import annotations

import csv
import gzip
import json
from dataclasses import fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .consistency import DefectReport
from .core import (
    ClassSplit,
    EmbeddingMatrix,
    FeatureMatrix,
    LabeledDataset,
    PrototypeSet,
    _freeze,
    as_array,
)
from .errors import ParseError, ShapeMismatch, ValidationError
from .evaluation import EvalReport
from .model import DmapConfig, DmapModel, Prediction
from .synth import SynthDataset

MATRIX_MAGIC = "dmap-matrix"
MATRIX_VERSION = "1"

SUMMARY_HEADER = ("iteration", "mode", "mean_per_class_acc", "top1", "cm", "irc_gap")


def _fmt(value: float) -> str:
    """Shortest decimal string that round-trips the double exactly."""
    return repr(float(value))


def _open_text(path: Path, mode: str):
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8", newline="")
    return open(path, mode, encoding="utf-8", newline="")


def save_matrix(matrix, path) -> None:
    """Write a 2-D array in the text matrix format (gzip if ``*.gz``)."""
    arr = np.atleast_2d(as_array(matrix))
    if arr.ndim != 2:
        raise ValidationError(f"matrix files hold 2-D arrays, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("matrix files hold finite doubles only")
    path = Path(path)
    rows, cols = arr.shape
    with _open_text(path, "w") as fh:
        fh.write(f"{MATRIX_MAGIC} {MATRIX_VERSION} {rows} {cols}\n")
        for i in range(rows):
            fh.write(" ".join(_fmt(v) for v in arr[i]))
            fh.write("\n")


def load_matrix(path) -> np.ndarray:
    """Read a text matrix file back into a float64 array."""
    path = Path(path)
    try:
        with _open_text(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("empty matrix file", line=1)
    header = lines[0].split()
    if len(header) != 4 or header[0] != MATRIX_MAGIC or header[1] != MATRIX_VERSION:
        raise ParseError(
            f"expected header '{MATRIX_MAGIC} {MATRIX_VERSION} <rows> <cols>', got {lines[0]!r}",
            line=1,
        )
    # int() also reads "+1", "1_0" and non-ASCII digits.
    if not all(tok.isascii() and tok.isdigit() for tok in header[2:]):
        raise ParseError(f"shape in header is not two decimal integers: {lines[0]!r}", line=1)
    rows, cols = int(header[2]), int(header[3])
    if rows < 1 or cols < 1:
        raise ParseError(f"matrix shape must be positive, got {rows}x{cols}", line=1)
    body = lines[1:]
    if len(body) != rows:
        raise ShapeMismatch(
            f"header declares {rows} rows but body has {len(body)} lines"
        )
    out = np.empty((rows, cols))
    for i, line in enumerate(body):
        tokens = line.split()
        if len(tokens) != cols:
            raise ShapeMismatch(
                f"row {i + 1} has {len(tokens)} values, expected {cols} (line {i + 2})"
            )
        if "_" in line or not line.isascii():
            # float() also reads digit separators and non-ASCII digits.
            for j, tok in enumerate(tokens):
                if "_" in tok or not tok.isascii():
                    raise ParseError(f"bad float {tok!r}", line=i + 2, column=j + 1)
        for j, tok in enumerate(tokens):
            try:
                v = float(tok)
            except ValueError:
                raise ParseError(f"bad float {tok!r}", line=i + 2, column=j + 1) from None
            if not np.isfinite(v):
                raise ParseError(f"non-finite value {tok!r}", line=i + 2, column=j + 1)
            out[i, j] = v
    return out


def _dump_json(obj, path) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _load_json(path):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc.msg}",
                         line=exc.lineno, column=exc.colno) from exc


def save_split(split: ClassSplit, path) -> None:
    _dump_json({"seen": list(split.seen), "unseen": list(split.unseen)}, path)


def _ids(obj, what: str, path) -> tuple:
    """A JSON array of class ids (strings or integers) as a tuple."""
    if not isinstance(obj, list):
        raise ParseError(f"{what} must be a JSON array: {path}")
    for i, item in enumerate(obj):
        if isinstance(item, bool) or not isinstance(item, (str, int)):
            raise ParseError(f"{what} entry {i} is {item!r}, not a string or an integer: {path}")
    return tuple(obj)


def load_split(path) -> ClassSplit:
    obj = _load_json(path)
    if not isinstance(obj, dict) or set(obj) != {"seen", "unseen"}:
        raise ParseError(f"split file must be an object with keys seen/unseen: {path}")
    return ClassSplit(seen=_ids(obj["seen"], "split seen", path),
                      unseen=_ids(obj["unseen"], "split unseen", path))


def save_labels(labels: Sequence, path) -> None:
    _dump_json(list(labels), path)


def load_labels(path) -> tuple:
    return _ids(_load_json(path), "labels file", path)


# --- run configuration ----------------------------------------------------

#: JSON key -> DmapConfig attribute: the field names, with ``lambda`` for ``lam``.
_CONFIG_KEYS = {("lambda" if f.name == "lam" else f.name): f.name for f in fields(DmapConfig)}


def run_config_to_dict(config: DmapConfig) -> dict:
    """The run config of ``model.json``, with run-config ``epsilon`` and ``seed`` unset."""
    return {**{key: getattr(config, attr) for key, attr in _CONFIG_KEYS.items()},
            "epsilon": None, "seed": 0}


def run_config_fields(obj: Mapping) -> dict:
    """The ``DmapConfig`` fields a run-config mapping sets; unknown keys
    are rejected.  ``epsilon`` and ``seed`` are accepted but are not
    model hyper-parameters."""
    if not isinstance(obj, Mapping):
        raise ValidationError("run config must be a JSON object")
    unknown = set(obj) - set(_CONFIG_KEYS) - {"epsilon", "seed"}
    if unknown:
        raise ValidationError(f"unknown run-config keys: {sorted(unknown)}")
    return {attr: obj[key] for key, attr in _CONFIG_KEYS.items() if key in obj}


# --- reports ---------------------------------------------------------------

def defect_report_to_dict(report: DefectReport) -> dict:
    return {
        "epsilon": float(report.epsilon),
        "class_ids": list(report.class_ids),
        "pairwise_distances": [[float(v) for v in row] for row in report.pairwise_distances],
        "flagged_pairs": [
            {"class_i": i, "class_j": j, "distance": float(d)}
            for (i, j, d) in report.flagged_pairs
        ],
    }


def save_defect_report(report: DefectReport, path) -> None:
    _dump_json(defect_report_to_dict(report), path)


def eval_report_to_dict(report: EvalReport) -> dict:
    return {
        "mode": report.mode,
        "mean_per_class_accuracy": float(report.mean_per_class_accuracy),
        "per_class_accuracy": {str(k): float(v) for k, v in report.per_class_accuracy.items()},
        "top_k_accuracy": {str(k): float(v) for k, v in report.top_k_accuracy.items()},
        "candidates": list(report.candidate_ids),
        "confusion": [[int(v) for v in row] for row in report.confusion],
    }


def save_eval_report(report: EvalReport, path) -> None:
    _dump_json(eval_report_to_dict(report), path)


def save_confusion_csv(report: EvalReport, path) -> None:
    """Plot-ready confusion matrix: first column true class, then counts."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["true"] + [str(c) for c in report.candidate_ids])
        for i, cid in enumerate(report.candidate_ids):
            writer.writerow([str(cid)] + [str(int(v)) for v in report.confusion[i]])


def prediction_to_dict(prediction: Prediction, mode: str) -> dict:
    return {
        "mode": mode,
        "instance_ids": list(prediction.instance_ids),
        "predicted": list(prediction.predicted_class),
        "candidates": list(prediction.candidate_ids),
        "scores": [[float(v) for v in row] for row in prediction.score_matrix],
    }


def save_prediction(prediction: Prediction, mode: str, path) -> None:
    _dump_json(prediction_to_dict(prediction, mode), path)


def load_prediction(path) -> tuple[Prediction, str]:
    obj = _load_json(path)
    needed = {"mode", "instance_ids", "predicted", "candidates", "scores"}
    if not isinstance(obj, dict) or not needed <= set(obj):
        raise ParseError(f"prediction file missing keys {sorted(needed)}: {path}")
    instance_ids = _ids(obj["instance_ids"], "instance_ids", path)
    predicted = _ids(obj["predicted"], "predicted", path)
    candidates = _ids(obj["candidates"], "candidates", path)
    try:
        scores = np.asarray(obj["scores"], dtype=np.float64)
    except (TypeError, ValueError):
        raise ParseError(f"prediction scores are not a rectangular table of numbers: {path}") from None
    if len(predicted) != len(instance_ids) or scores.shape != (len(candidates), len(instance_ids)):
        raise ParseError(f"prediction has {len(instance_ids)} instance ids, {len(predicted)} "
                         f"predicted ids and scores of shape {scores.shape} for "
                         f"{len(candidates)} candidates: {path}")
    if len(set(candidates)) != len(candidates):
        raise ParseError(f"prediction candidates are not unique: {path}")
    unknown = set(predicted) - set(candidates)
    if unknown:
        raise ParseError(f"predicted classes not among the candidates: "
                         f"{sorted(unknown, key=repr)}: {path}")
    return Prediction(instance_ids, predicted, scores, candidates), str(obj["mode"])


def write_summary_csv(rows: Sequence[Mapping], path) -> None:
    """Summary table with one row per inference iteration.

    ``rows`` are mappings with the :data:`SUMMARY_HEADER` keys; floats
    are printed with full round-trip precision.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_HEADER)
        for row in rows:
            writer.writerow([
                str(row["iteration"]),
                str(row["mode"]),
                _fmt(row["mean_per_class_acc"]),
                _fmt(row["top1"]),
                _fmt(row["cm"]),
                _fmt(row["irc_gap"]),
            ])


# --- model directories ------------------------------------------------------

_MODEL_META = "model.json"


def save_model(model: DmapModel, directory) -> None:
    """Serialise a trained model: three matrix files plus metadata JSON."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_matrix(model.f_s, directory / "f_s.dmx")
    save_matrix(model.f_tilde, directory / "f_tilde.dmx")
    save_matrix(model.k_tilde_s.data, directory / "k_tilde_s.dmx")
    if model.feature_mean is not None:
        save_matrix(model.feature_mean.reshape(-1, 1), directory / "feature_mean.dmx")
    meta = {
        "schema": "dmap-model 1",
        "config": run_config_to_dict(model.config),
        "seen_class_ids": list(model.k_tilde_s.class_ids),
        "train_iterations_run": int(model.train_iterations_run),
        "has_feature_mean": model.feature_mean is not None,
    }
    _dump_json(meta, directory / _MODEL_META)


def load_model(directory) -> DmapModel:
    directory = Path(directory)
    meta = _load_json(directory / _MODEL_META)
    if not isinstance(meta, dict) or meta.get("schema") != "dmap-model 1":
        raise ParseError(f"not a model directory: {directory}")
    missing = {"config", "seen_class_ids", "train_iterations_run"} - set(meta)
    if missing:
        raise ParseError(f"{_MODEL_META} is missing keys {sorted(missing)}: {directory}")
    iterations = meta["train_iterations_run"]
    if isinstance(iterations, bool) or not isinstance(iterations, int) or iterations < 0:
        raise ParseError(f"{_MODEL_META} has train_iterations_run {iterations!r}, "
                         f"not a nonnegative integer: {directory}")
    try:
        config = DmapConfig(**run_config_fields(meta["config"]))
    except ValidationError as e:
        raise ParseError(f"{_MODEL_META} config: {e}: {directory}") from None
    seen_ids = _ids(meta["seen_class_ids"], "seen_class_ids", directory / _MODEL_META)
    has_mean = meta.get("has_feature_mean", False)
    if has_mean is not config.center:
        raise ParseError(f"{_MODEL_META} has has_feature_mean {has_mean!r} but config "
                         f"center {config.center!r}: {directory}")
    f_s = load_matrix(directory / "f_s.dmx")
    f_tilde = load_matrix(directory / "f_tilde.dmx")
    k_tilde = load_matrix(directory / "k_tilde_s.dmx")
    mean = None
    if has_mean:
        mean = load_matrix(directory / "feature_mean.dmx").reshape(-1)
    d = f_s.shape[0]
    for name, size, expected, source in (
        ("f_tilde.dmx rows", f_tilde.shape[0], d, "f_s.dmx rows"),
        ("feature_mean.dmx entries", d if mean is None else mean.size, d, "f_s.dmx rows"),
        ("k_tilde_s.dmx rows", k_tilde.shape[0], f_tilde.shape[1], "f_tilde.dmx columns"),
        ("k_tilde_s.dmx columns", k_tilde.shape[1], len(seen_ids), "seen_class_ids"),
    ):
        if size != expected:
            raise ShapeMismatch(f"{name}: {size}, but {source}: {expected}: {directory}")
    return DmapModel(
        f_s=_freeze(f_s),
        f_tilde=_freeze(f_tilde),
        k_tilde_s=PrototypeSet(k_tilde, seen_ids),
        train_iterations_run=iterations,
        config=config,
        feature_mean=mean,
    )


# --- dataset directories -----------------------------------------------------

def save_dataset(dataset: SynthDataset, directory) -> None:
    """Write a generated dataset in the pipeline's on-disk layout.

    Embedding columns are stored in split order (all seen classes, then
    all unseen classes); the split file carries the class ids.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    split = dataset.split
    ordered = dataset.embeddings.subset(split.seen + split.unseen)
    save_matrix(dataset.train.features.data, directory / "train_features.dmx")
    save_labels(dataset.train.labels, directory / "train_labels.json")
    save_matrix(dataset.test_features.data, directory / "test_features.dmx")
    save_labels(dataset.test_labels, directory / "test_labels.json")
    save_matrix(ordered.data, directory / "embeddings.dmx")
    save_split(split, directory / "split.json")


def load_embeddings(path, split: ClassSplit) -> EmbeddingMatrix:
    """Read an embeddings matrix whose columns are the split's classes,
    seen then unseen (the layout :func:`save_dataset` writes)."""
    class_ids = split.seen + split.unseen
    emb = load_matrix(path)
    if emb.shape[1] != len(class_ids):
        raise ShapeMismatch(
            f"{Path(path).name} has {emb.shape[1]} columns but the split lists "
            f"{len(class_ids)} classes"
        )
    return EmbeddingMatrix(emb, class_ids)


def load_training_set(features_path, labels_path, split_path, embeddings_path) -> LabeledDataset:
    """Read the training side: seen-class features and labels, split, embeddings."""
    split = load_split(split_path)
    embeddings = load_embeddings(embeddings_path, split)
    X = load_matrix(features_path)
    features = FeatureMatrix(X, tuple(f"tr{i:06d}" for i in range(X.shape[1])))
    return LabeledDataset(features=features, labels=load_labels(labels_path), split=split,
                          semantic=embeddings)


def load_dataset(directory) -> tuple[LabeledDataset, FeatureMatrix, tuple, EmbeddingMatrix]:
    """Read a dataset directory back; inverse of :func:`save_dataset`."""
    directory = Path(directory)
    train = load_training_set(directory / "train_features.dmx", directory / "train_labels.json",
                              directory / "split.json", directory / "embeddings.dmx")
    test_X = load_matrix(directory / "test_features.dmx")
    test = FeatureMatrix(test_X, tuple(f"te{i:06d}" for i in range(test_X.shape[1])))
    return train, test, load_labels(directory / "test_labels.json"), train.semantic
