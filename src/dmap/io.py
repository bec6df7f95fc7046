"""File formats: matrices, JSON splits/labels/configs/reports, CSV
summaries, and model/dataset directories.

A matrix file's suffix picks its format.  ``.npy`` is NumPy's binary
format, read with pickles refused: float32 or float64, converted exactly to
float64.  Every other name is the text format, whose first line is
``dmap-matrix 1 <rows> <cols>`` followed by ``rows`` lines of ``cols``
space-separated decimal floats, printed in the shortest representation that
round-trips, so ``parse(serialize(M))`` reproduces ``M`` bit-exactly; text
files ending in ``.gz`` are gzip-wrapped transparently (``.npy.gz`` is
refused).  Both formats hold non-empty 2-D arrays of finite doubles.
Model directories (``dmap-model 2``) store their arrays as ``.npy``;
``dmap-model 1`` directories, in text, are still read.  Everything written
by this module is deterministic: JSON keys are sorted, floats use ``repr``,
and no timestamps or environment details are embedded.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import os
import tokenize
import warnings
import zlib
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
    _freeze,
    as_array,
    default_instance_ids,
)
from .errors import ParseError, ShapeMismatch, ValidationError
from .evaluation import EvalReport
from .model import CZSR, GZSR, DmapConfig, DmapModel, Prediction
from .synth import SynthDataset

MATRIX_MAGIC = "dmap-matrix"
MATRIX_VERSION = "1"

SUMMARY_HEADER = ("iteration", "mode", "mean_per_class_acc", "top1", "cm", "irc_gap")


def _fmt(value: float) -> str:
    """Shortest decimal string that round-trips the double exactly."""
    return repr(float(value))


def _is_npy(path: Path) -> bool:
    """Whether ``path`` names a ``.npy`` matrix file; ``.npy.gz`` is refused."""
    if path.suffixes[-2:] == [".npy", ".gz"]:
        raise ParseError(f".npy matrix files are not gzip-wrapped: {path}")
    return path.suffix == ".npy"


def save_matrix(matrix, path) -> None:
    """Write a 2-D array as ``.npy`` or in the text matrix format (gzip if ``*.gz``)."""
    arr = np.atleast_2d(np.asarray(as_array(matrix), dtype=np.float64))
    if arr.ndim != 2 or arr.size == 0:
        raise ValidationError(f"matrix files hold non-empty 2-D arrays, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("matrix files hold finite doubles only")
    path = Path(path)
    if _is_npy(path):
        with open(path, "wb") as fh:
            # C order always, so equal matrices give equal bytes.
            np.lib.format.write_array(fh, np.ascontiguousarray(arr), allow_pickle=False)
        return
    rows, cols = arr.shape
    with open(path, "wb") as raw:
        # For gzip, an empty name and mtime 0 keep the file name and the
        # clock out of the header, so equal matrices give equal bytes.
        stream = (gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0)
                  if path.suffix == ".gz" else raw)
        with stream, io.TextIOWrapper(stream, encoding="utf-8", newline="") as fh:
            fh.write(f"{MATRIX_MAGIC} {MATRIX_VERSION} {rows} {cols}\n")
            # One row at a time: a whole-matrix tolist() would hold every
            # value as a Python float at once.
            for row in arr:
                fh.write(" ".join(map(repr, row.tolist())))
                fh.write("\n")


#: What reading a malformed ``.npy`` header raises besides ``ValueError``:
#: NumPy's header parser lets an unhashable or too-short ``descr`` escape as
#: ``TypeError`` or ``IndexError``, its fallback for Python 2 headers can end
#: in ``tokenize.TokenError`` (and warns, which is made an error below), and
#: Python's parser gives up on deeply nested expressions with ``MemoryError``.
_NPY_ERRORS = (OSError, ValueError, TypeError, LookupError, SyntaxError, MemoryError,
               tokenize.TokenError, UserWarning)
_NPY_HEADER_READERS = {(1, 0): np.lib.format.read_array_header_1_0,
                       (2, 0): np.lib.format.read_array_header_2_0}


def _load_npy(path: Path) -> np.ndarray:
    """A float32 or float64 ``.npy`` matrix as a C-ordered float64 array."""
    try:
        with open(path, "rb") as fh:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                version = np.lib.format.read_magic(fh)
                if version not in _NPY_HEADER_READERS:
                    raise ParseError(f".npy format version {version} is not read: {path}")
                shape, fortran_order, dtype = _NPY_HEADER_READERS[version](fh)
            if dtype.kind != "f" or dtype.itemsize not in (4, 8):
                raise ParseError(f".npy matrix files hold float32 or float64, got {dtype}: {path}")
            if len(shape) != 2 or min(shape) < 1:
                raise ParseError(f".npy matrix files hold non-empty 2-D arrays, "
                                 f"got shape {shape}: {path}")
            # Checked before reading, so the header cannot ask for more
            # memory than the file holds.
            nbytes = shape[0] * shape[1] * dtype.itemsize
            size = os.fstat(fh.fileno()).st_size - fh.tell()
            if size != nbytes:
                raise ParseError(f"{path} holds {size} bytes of data, but its header "
                                 f"declares {shape} {dtype} ({nbytes} bytes)")
            data = np.fromfile(fh, dtype=dtype, count=shape[0] * shape[1])
    except _NPY_ERRORS as exc:
        raise ParseError(f"cannot read {path}: {type(exc).__name__}: {exc}") from exc
    data = data.reshape(shape[::-1]).T if fortran_order else data.reshape(shape)
    out = np.ascontiguousarray(data, dtype=np.float64)
    if not np.isfinite(out).all():
        i, j = np.argwhere(~np.isfinite(out))[0]
        raise ParseError(f"non-finite value {float(out[i, j])!r} at row {i + 1}, "
                         f"column {j + 1}: {path}")
    return out


def load_matrix(path) -> np.ndarray:
    """Read a matrix file, ``.npy`` or text, into a float64 array."""
    path = Path(path)
    if _is_npy(path):
        return _load_npy(path)
    opener = gzip.open if path.suffix == ".gz" else open
    try:
        with opener(path, "rt", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except (OSError, EOFError, UnicodeDecodeError, zlib.error) as exc:
        # A truncated gzip stream ends in EOFError, a corrupted one in
        # zlib.error; neither is an OSError.
        raise ParseError(f"cannot read {path}: {exc}") from exc
    # The lines of text.split("\n") without a last empty one, walked as
    # slices of the text one at a time rather than held as a list.
    if not text:
        raise ParseError("empty matrix file", line=1)
    body_lines = text.count("\n") - text.endswith("\n")
    end = text.find("\n")
    first = text if end < 0 else text[:end]
    header = first.split()
    if len(header) != 4 or header[0] != MATRIX_MAGIC or header[1] != MATRIX_VERSION:
        raise ParseError(
            f"expected header '{MATRIX_MAGIC} {MATRIX_VERSION} <rows> <cols>', got {first!r}",
            line=1,
        )
    # int() also reads "+1", "1_0" and non-ASCII digits.
    if not all(tok.isascii() and tok.isdigit() for tok in header[2:]):
        raise ParseError(f"shape in header is not two decimal integers: {first!r}", line=1)
    try:
        rows, cols = int(header[2]), int(header[3])
    except ValueError:  # more digits than int() converts from text
        raise ParseError("shape in header has too many digits", line=1) from None
    if rows < 1 or cols < 1:
        raise ParseError(f"matrix shape must be positive, got {rows}x{cols}", line=1)
    if body_lines != rows:
        raise ShapeMismatch(
            f"header declares {rows} rows but body has {body_lines} lines"
        )
    # Each value takes at least one character, so this bounds the
    # allocation below by the file's own size.
    if rows * cols > len(text):
        raise ShapeMismatch(f"header declares {rows}x{cols} values, more than "
                            f"the file's {len(text)} characters can hold")
    out = np.empty((rows, cols))
    for i in range(rows):
        start = end + 1
        end = text.find("\n", start)
        line = text[start:] if end < 0 else text[start:end]
        tokens = line.split()
        # Checked before the row assignment, which would broadcast one token.
        if len(tokens) != cols:
            raise ShapeMismatch(
                f"row {i + 1} has {len(tokens)} values, expected {cols} (line {i + 2})"
            )
        if "_" in line or not line.isascii():
            # float() also reads digit separators and non-ASCII digits.
            for j, tok in enumerate(tokens):
                if "_" in tok or not tok.isascii():
                    raise ParseError(f"bad float {tok!r}", line=i + 2, column=j + 1)
        try:
            out[i] = tokens  # NumPy calls float() on each token
            if np.isfinite(out[i]).all():
                continue
        except ValueError:
            pass
        # A bad or non-finite token: find it, for its line and column.
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
    """Write ``obj`` as JSON; ``ValidationError`` if it holds NaN or Infinity,
    which are not JSON."""
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise ValidationError(f"JSON files hold finite numbers only: {path}") from None
    Path(path).write_text(text + "\n", encoding="utf-8")


def _load_json(path):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc.msg}",
                         line=exc.lineno, column=exc.colno) from exc
    except (ValueError, RecursionError) as exc:
        # An integer of more digits than int() converts, or nesting
        # deeper than the decoder's recursion limit.
        raise ParseError(f"invalid JSON in {path}: {exc}") from None


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

#: JSON key -> DmapConfig attribute: each field's ``key`` metadata, else its name.
_CONFIG_KEYS = {f.metadata.get("key", f.name): f.name for f in fields(DmapConfig)}


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

def save_defect_report(report: DefectReport, path) -> None:
    _dump_json({
        "epsilon": float(report.epsilon),
        "class_ids": list(report.class_ids),
        "pairwise_distances": [[float(v) for v in row] for row in report.pairwise_distances],
        "flagged_pairs": [
            {"class_i": i, "class_j": j, "distance": float(d)}
            for (i, j, d) in report.flagged_pairs
        ],
    }, path)


def save_eval_report(report: EvalReport, path) -> None:
    _dump_json({
        "mode": report.mode,
        "mean_per_class_accuracy": float(report.mean_per_class_accuracy),
        "per_class_accuracy": {str(k): float(v) for k, v in report.per_class_accuracy.items()},
        "top_k_accuracy": {str(k): float(v) for k, v in report.top_k_accuracy.items()},
        "candidates": list(report.candidate_ids),
        "confusion": [[int(v) for v in row] for row in report.confusion],
    }, path)


def save_confusion_csv(report: EvalReport, path) -> None:
    """Plot-ready confusion matrix: first column true class, then counts."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["true"] + [str(c) for c in report.candidate_ids])
        for i, cid in enumerate(report.candidate_ids):
            writer.writerow([str(cid)] + [str(int(v)) for v in report.confusion[i]])


def save_prediction(prediction: Prediction, mode: str, path) -> None:
    """Write the bytes of ``json.dumps(obj, sort_keys=True, indent=2)`` and a
    newline, where ``obj`` maps ``"mode"`` to ``mode``, ``"instance_ids"``,
    ``"predicted"`` and ``"candidates"`` to lists of the prediction's
    instance ids, predicted classes and candidate ids, and ``"scores"`` to
    the score matrix as a list of rows of floats.

    Any indent makes ``json`` use its pure-Python encoder, so only the id
    lists go through it.  The score table, whose key sorts last, is joined
    row by row from ``repr``, which is how ``json`` writes finite floats:
    one value per line at depth 3, and an empty list as ``[]``.
    """
    scores = np.asarray(prediction.score_matrix, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise ValidationError(f"prediction scores must be finite doubles: {path}")
    head = json.dumps({
        "mode": mode,
        "instance_ids": list(prediction.instance_ids),
        "predicted": list(prediction.predicted_class),
        "candidates": list(prediction.candidate_ids),
    }, sort_keys=True, indent=2)
    rows = ["[\n      " + ",\n      ".join(map(repr, row.tolist())) + "\n    ]" if row.size
            else "[]" for row in scores]
    table = "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"
    # head ends in "\n}": the scores key goes before that brace.
    Path(path).write_text(f'{head[:-2]},\n  "scores": {table}\n}}\n', encoding="utf-8")


def load_prediction(path) -> tuple[Prediction, str]:
    obj = _load_json(path)
    needed = {"mode", "instance_ids", "predicted", "candidates", "scores"}
    if not isinstance(obj, dict) or not needed <= set(obj):
        raise ParseError(f"prediction file missing keys {sorted(needed)}: {path}")
    if obj["mode"] not in (CZSR, GZSR):
        raise ParseError(f"prediction mode must be {CZSR!r} or {GZSR!r}, "
                         f"got {obj['mode']!r}: {path}")
    instance_ids = _ids(obj["instance_ids"], "instance_ids", path)
    predicted = _ids(obj["predicted"], "predicted", path)
    candidates = _ids(obj["candidates"], "candidates", path)
    try:
        scores = np.asarray(obj["scores"], dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"prediction scores are not a rectangular table of numbers: {path}") from None
    if len(predicted) != len(instance_ids) or scores.shape != (len(candidates), len(instance_ids)):
        raise ParseError(f"prediction has {len(instance_ids)} instance ids, {len(predicted)} "
                         f"predicted ids and scores of shape {scores.shape} for "
                         f"{len(candidates)} candidates: {path}")
    # The table is now a list of rows of JSON scalars that converted to doubles;
    # NaN, Infinity, true and false would have converted too.
    if not np.all(np.isfinite(scores)) or any(bool in map(type, row) for row in obj["scores"]):
        raise ParseError(f"prediction scores must be finite numbers: {path}")
    if len(set(candidates)) != len(candidates):
        raise ParseError(f"prediction candidates are not unique: {path}")
    unknown = set(predicted) - set(candidates)
    if unknown:
        raise ParseError(f"predicted classes not among the candidates: "
                         f"{sorted(unknown, key=repr)}: {path}")
    return Prediction(instance_ids, predicted, scores, candidates), obj["mode"]


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
_MODEL_SCHEMA = "dmap-model 2"
#: Matrix file suffix by model schema: version 2 is binary, version 1 text.
_MODEL_SUFFIX = {"dmap-model 1": ".dmx", _MODEL_SCHEMA: ".npy"}


def save_model(model: DmapModel, directory) -> None:
    """Serialise a trained model: three ``.npy`` matrices plus metadata JSON."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_matrix(model.f_s, directory / "f_s.npy")
    save_matrix(model.f_tilde, directory / "f_tilde.npy")
    save_matrix(model.k_tilde_s.data, directory / "k_tilde_s.npy")
    if model.feature_mean is not None:
        save_matrix(model.feature_mean.reshape(-1, 1), directory / "feature_mean.npy")
    meta = {
        "schema": _MODEL_SCHEMA,
        "config": run_config_to_dict(model.config),
        "seen_class_ids": list(model.k_tilde_s.class_ids),
        "train_iterations_run": int(model.train_iterations_run),
        "has_feature_mean": model.feature_mean is not None,
    }
    _dump_json(meta, directory / _MODEL_META)


def load_model(directory) -> DmapModel:
    """Read a model directory, ``dmap-model 2`` (``.npy``) or 1 (text)."""
    directory = Path(directory)
    meta = _load_json(directory / _MODEL_META)
    schema = meta.get("schema") if isinstance(meta, dict) else None
    suffix = _MODEL_SUFFIX.get(schema) if isinstance(schema, str) else None
    if suffix is None:
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
    f_s, f_tilde, k_tilde = (load_matrix(directory / f"{name}{suffix}")
                             for name in ("f_s", "f_tilde", "k_tilde_s"))
    mean = None
    if has_mean:
        mean = load_matrix(directory / f"feature_mean{suffix}").reshape(-1)
    d = f_s.shape[0]
    for name, size, expected, source in (
        (f"f_tilde{suffix} rows", f_tilde.shape[0], d, f"f_s{suffix} rows"),
        (f"feature_mean{suffix} entries", d if mean is None else mean.size, d,
         f"f_s{suffix} rows"),
        (f"k_tilde_s{suffix} rows", k_tilde.shape[0], f_tilde.shape[1],
         f"f_tilde{suffix} columns"),
        (f"k_tilde_s{suffix} columns", k_tilde.shape[1], len(seen_ids), "seen_class_ids"),
    ):
        if size != expected:
            raise ShapeMismatch(f"{name}: {size}, but {source}: {expected}: {directory}")
    try:
        k_tilde_s = EmbeddingMatrix(k_tilde, seen_ids)
    except ValidationError as e:
        raise ParseError(f"{_MODEL_META} seen_class_ids: {e}: {directory}") from None
    return DmapModel(
        f_s=_freeze(f_s),
        f_tilde=_freeze(f_tilde),
        k_tilde_s=k_tilde_s,
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
    features = FeatureMatrix(X, default_instance_ids(X.shape[1], "tr"))
    return LabeledDataset(features=features, labels=load_labels(labels_path), split=split,
                          semantic=embeddings)


def _dataset_matrix(directory: Path, stem: str) -> Path:
    """``<stem>.npy`` if the directory holds it, else ``<stem>.dmx``; not both."""
    npy, dmx = directory / f"{stem}.npy", directory / f"{stem}.dmx"
    if not npy.exists():
        return dmx
    if dmx.exists():
        raise ParseError(f"{directory} holds both {dmx.name} and {npy.name}")
    return npy


def load_dataset(directory) -> tuple[LabeledDataset, FeatureMatrix, tuple, EmbeddingMatrix]:
    """Read a dataset directory back; inverse of :func:`save_dataset`.  Each
    matrix may be stored as ``.npy`` instead of ``.dmx``."""
    directory = Path(directory)
    train = load_training_set(_dataset_matrix(directory, "train_features"),
                              directory / "train_labels.json", directory / "split.json",
                              _dataset_matrix(directory, "embeddings"))
    test_X = load_matrix(_dataset_matrix(directory, "test_features"))
    test = FeatureMatrix(test_X, default_instance_ids(test_X.shape[1], "te"))
    return train, test, load_labels(directory / "test_labels.json"), train.semantic
