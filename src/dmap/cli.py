"""Command-line surface: generate data, inspect semantic spaces, train,
predict, evaluate, and run the whole pipeline.

Exit codes: 0 success; 2 input validation; 3 numerical failure
(ill-conditioned or singular systems, or results that overflow); 4 file
I/O or format problems.
Structured errors go to stderr as one JSON object.

Configuration precedence is flags > config file > built-in defaults; at
predict time the model's stored config takes the place of the defaults,
and only the inference-time fields may differ from it.
``--threads`` caps the linear-algebra thread pools; it must act before
``numpy`` is first imported, which is why every command imports the
compute modules lazily.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _apply_threads(threads: int | None) -> None:
    if threads is None:
        return  # machine default
    for var in _THREAD_ENV_VARS:
        os.environ[var] = str(threads)


def _config_values(args) -> dict:
    """``DmapConfig`` fields set by the ``--config`` file, overlaid by the flags passed."""
    from dataclasses import fields

    from . import io as dio
    from .model import DmapConfig

    config_file = getattr(args, "config", None)
    values = dio.run_config_fields(dio._load_json(config_file)) if config_file else {}
    for field in fields(DmapConfig):
        if getattr(args, field.name, None) is not None:
            values[field.name] = getattr(args, field.name)
    return values


def _ensure_parent(path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)


def _add_config_flags(sub) -> None:
    sub.add_argument("--config", help="run-config JSON file")
    sub.add_argument("--lambda", dest="lam", type=float, help="relationship ridge regulariser")
    sub.add_argument("--gamma", type=float, help="feature-side ridge regulariser")
    sub.add_argument("--eta", type=float, help="embedding-side ridge regulariser")
    sub.add_argument("--m", type=int, help="neighbour count for prototypes")
    sub.add_argument("--train-max-iter", type=int, help="training refinement iterations")
    sub.add_argument("--test-max-iter", type=int, help="transductive refinement iterations")
    sub.add_argument("--convergence-tol", type=float, help="prototype convergence threshold")
    sub.add_argument("--mode", choices=("czsr", "gzsr"), help="candidate set at inference")
    sub.add_argument("--normalize", action="store_const", const=True, default=None,
                     help="l2-normalise feature and embedding columns")
    sub.add_argument("--center", action="store_const", const=True, default=None,
                     help="subtract the training-feature mean")


# --- command handlers -------------------------------------------------------

def _cmd_preinspect(args) -> int:
    from . import io as dio
    from .consistency import preinspect

    K_s = dio.load_matrix(args.kseen)
    K_u = dio.load_matrix(args.kunseen)
    report = preinspect(K_s, K_u, epsilon=args.epsilon)
    _ensure_parent(args.out)
    dio.save_defect_report(report, args.out)
    print(f"flagged {len(report.flagged_pairs)} pair(s) at epsilon={report.epsilon!r}")
    return 0


def _cmd_cm(args) -> int:
    from . import io as dio
    from .consistency import consistency_report
    from .model import DmapConfig

    X = dio.load_matrix(args.features)
    labels = dio.load_labels(args.labels)
    split = dio.load_split(args.split)
    embeddings = dio.load_embeddings(args.embeddings, split)
    lam = DmapConfig(**_config_values(args)).lam
    cm, gap = consistency_report(X, labels, split, embeddings, lam)
    _ensure_parent(args.out)
    dio._dump_json({"cm": cm, "irc_gap": gap, "lambda": lam}, args.out)
    print(f"cm={cm!r} irc_gap={gap!r}")
    return 0


def _cmd_train(args) -> int:
    from . import io as dio
    from .model import DmapConfig, train

    config = DmapConfig(**_config_values(args))
    dataset = dio.load_training_set(args.features, args.labels, args.split, args.embeddings)
    model = train(dataset, config)
    dio.save_model(model, args.model_dir)
    print(f"trained: {model.train_iterations_run} refinement iteration(s), "
          f"model in {args.model_dir}")
    return 0


def _cmd_predict(args) -> int:
    from dataclasses import replace

    from . import io as dio
    from .core import FeatureMatrix
    from .errors import ValidationError
    from .model import TRAINED_FIELDS, infer_inductive, infer_transductive

    model = dio.load_model(args.model_dir)
    values = _config_values(args)
    trained_with = {name: getattr(model.config, name) for name in TRAINED_FIELDS
                    if name in values and values[name] != getattr(model.config, name)}
    if trained_with:
        raise ValidationError(f"the model was trained with {trained_with}; "
                              "these settings cannot change at predict time")
    config = replace(model.config, **values)
    model = replace(model, config=config)
    split = dio.load_split(args.split)
    embeddings = dio.load_embeddings(args.embeddings, split)
    X = dio.load_matrix(args.test_features)
    test = FeatureMatrix(X, tuple(f"te{i:06d}" for i in range(X.shape[1])))
    K_unseen = embeddings.subset(split.unseen)
    K_seen = embeddings.subset(split.seen)
    _ensure_parent(args.out)
    if args.inductive:
        prediction = infer_inductive(model, test, K_unseen, K_seen, config.mode)
    else:
        prediction, k_tilde_u = infer_transductive(model, test, K_unseen, config.mode)
        dio.save_matrix(k_tilde_u.data, _ktilde_path(args.out))
    dio.save_prediction(prediction, config.mode, args.out)
    print(f"predicted {len(prediction.instance_ids)} instance(s) -> {args.out}")
    return 0


def _ktilde_path(out) -> Path:
    out = Path(out)
    return out.with_name(out.stem + "_ktilde_u.dmx")


def _cmd_eval(args) -> int:
    from . import io as dio
    from .errors import ValidationError
    from .evaluation import evaluate

    try:
        ks = tuple(int(tok) for tok in args.topk.split(",")) if args.topk else (1,)
    except ValueError:
        raise ValidationError(f"--topk must be comma-separated integers, got {args.topk!r}") from None
    prediction, stored_mode = dio.load_prediction(args.pred)
    truth = dio.load_labels(args.truth)
    mode = args.mode if args.mode is not None else stored_mode
    report = evaluate(prediction, truth, mode, ks)
    _ensure_parent(args.out)
    dio.save_eval_report(report, args.out)
    out = Path(args.out)
    dio.save_confusion_csv(report, out.with_name(out.stem + "_confusion.csv"))
    print(f"mean per-class accuracy: {report.mean_per_class_accuracy!r}")
    return 0


def _cmd_synth(args) -> int:
    from dataclasses import MISSING, fields

    from . import io as dio
    from .errors import ValidationError
    from .synth import SynthConfig, generate

    obj = dio._load_json(args.config)
    if not isinstance(obj, dict):
        raise ValidationError("synth config must be a JSON object")
    unknown = set(obj) - {f.name for f in fields(SynthConfig)}
    if unknown:
        raise ValidationError(f"unknown synth-config keys: {sorted(unknown)}")
    missing = {f.name for f in fields(SynthConfig) if f.default is MISSING} - set(obj)
    if missing:
        raise ValidationError(f"missing synth-config keys: {sorted(missing)}")
    dataset = generate(SynthConfig(**obj))
    dio.save_dataset(dataset, args.out_dir)
    print(f"dataset written to {args.out_dir}")
    return 0


def _cmd_pipeline(args) -> int:
    from . import io as dio
    from .consistency import consistency_report
    from .evaluation import evaluate
    from .model import DmapConfig, infer_inductive, train, transductive_rounds
    import numpy as np

    config = DmapConfig(**_config_values(args))
    data_dir = Path(args.data_dir)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    train_set, test_features, test_labels, embeddings = dio.load_dataset(data_dir)
    split = train_set.split
    K_unseen = embeddings.subset(split.unseen)
    K_seen = embeddings.subset(split.seen)

    model = train(train_set, config)
    dio.save_model(model, out_dir / "model")

    # Consistency diagnostics on class-mean prototypes (train side gives
    # the seen prototypes, the labelled test side the unseen ones).
    all_X = np.concatenate([train_set.features.data, test_features.data], axis=1)
    all_labels = tuple(train_set.labels) + tuple(test_labels)
    cm_value, gap_value = consistency_report(all_X, all_labels, split, embeddings, config.lam)

    rows = []

    def record(iteration, prediction, stem):
        dio.save_prediction(prediction, config.mode, out_dir / f"pred_{stem}.json")
        report = evaluate(prediction, test_labels, config.mode, ks=(1,))
        dio.save_eval_report(report, out_dir / f"eval_{stem}.json")
        rows.append({
            "iteration": iteration,
            "mode": config.mode,
            "mean_per_class_acc": report.mean_per_class_accuracy,
            "top1": report.top_k_accuracy[1],
            "cm": cm_value,
            "irc_gap": gap_value,
        })

    record(0, infer_inductive(model, test_features, K_unseen, K_seen, config.mode),
           "inductive")
    rounds = transductive_rounds(model, test_features, K_unseen, config.mode,
                                 config.test_max_iter)
    for t, (prediction, k_tilde_u) in enumerate(rounds, start=1):
        dio.save_matrix(k_tilde_u.data, out_dir / f"ktilde_u_iter{t}.dmx")
        record(t, prediction, f"iter{t}")

    dio.write_summary_csv(rows, out_dir / "summary.csv")
    for row in rows:
        print(f"iteration {row['iteration']}: "
              f"mean_per_class_acc={row['mean_per_class_acc']!r} top1={row['top1']!r}")
    return 0


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmap",
        description="Zero-shot recognition with dual visual-semantic mapping paths.",
    )
    parser.add_argument("--threads", type=int, default=None,
                        help="cap linear-algebra thread pools (default: machine)")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("preinspect",
                              help="flag unseen-class pairs indistinguishable from seen data")
    sub.add_argument("--kseen", required=True, help="seen embeddings matrix file (p x k)")
    sub.add_argument("--kunseen", required=True, help="unseen embeddings matrix file (p x l)")
    sub.add_argument("--epsilon", type=float, default=None,
                     help="absolute distance threshold (default: 1e-6 x median)")
    sub.add_argument("--out", required=True, help="defect report JSON")
    sub.set_defaults(func=_cmd_preinspect)

    sub = commands.add_parser("cm", help="consistency measure between feature and semantic manifolds")
    sub.add_argument("--features", required=True, help="features matrix file (d x n)")
    sub.add_argument("--labels", required=True,
                     help="labels JSON array covering seen and unseen instances")
    sub.add_argument("--split", required=True, help="split JSON file")
    sub.add_argument("--embeddings", required=True,
                     help="embeddings matrix file, columns in split order")
    sub.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="relationship ridge regulariser (default: as for train)")
    sub.add_argument("--out", required=True, help="output JSON with cm and irc_gap")
    sub.set_defaults(func=_cmd_cm)

    sub = commands.add_parser("train", help="fit both mapping paths and refined prototypes")
    sub.add_argument("--features", required=True)
    sub.add_argument("--labels", required=True)
    sub.add_argument("--split", required=True)
    sub.add_argument("--embeddings", required=True)
    _add_config_flags(sub)
    sub.add_argument("--model-dir", required=True)
    sub.set_defaults(func=_cmd_train)

    sub = commands.add_parser("predict", help="classify test features with a trained model")
    sub.add_argument("--model-dir", required=True)
    sub.add_argument("--test-features", required=True)
    sub.add_argument("--embeddings", required=True)
    sub.add_argument("--split", required=True)
    _add_config_flags(sub)
    sub.add_argument("--inductive", action="store_true",
                     help="score against the given embeddings instead of transductive prototypes")
    sub.add_argument("--out", required=True, help="prediction JSON")
    sub.set_defaults(func=_cmd_predict)

    sub = commands.add_parser("eval", help="score a prediction against ground truth")
    sub.add_argument("--pred", required=True)
    sub.add_argument("--truth", required=True, help="ground-truth labels JSON array")
    sub.add_argument("--mode", choices=("czsr", "gzsr"), default=None)
    sub.add_argument("--topk", default="1", help="comma-separated top-k cutoffs")
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_eval)

    sub = commands.add_parser("synth", help="generate a synthetic dataset")
    sub.add_argument("--config", required=True, help="synth-config JSON file")
    sub.add_argument("--out-dir", required=True)
    sub.set_defaults(func=_cmd_synth)

    sub = commands.add_parser("pipeline", help="train, predict and evaluate end to end")
    sub.add_argument("--data-dir", required=True)
    sub.add_argument("--out-dir", required=True)
    _add_config_flags(sub)
    sub.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _apply_threads(args.threads)
    from .errors import DmapError, FileFormatError, NumericalError

    try:
        return args.func(args)
    except FileFormatError as exc:
        _report_error(exc)
        return 4
    except NumericalError as exc:
        _report_error(exc)
        return 3
    except DmapError as exc:
        _report_error(exc)
        return 2
    except OSError as exc:
        _report_error(exc)
        return 4


def _report_error(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
