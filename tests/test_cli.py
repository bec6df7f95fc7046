"""End-to-end tests of the command-line interface, driven through
``main(argv)``: every command, the documented exit codes, and output
determinism."""

import argparse
import contextlib
import gzip
import io
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmap import io as dio
from dmap.cli import build_parser, main
from dmap.core import l2_normalize_columns
from dmap.errors import ParseError, ShapeMismatch
from dmap.model import DmapConfig, Prediction
from oracles import prediction_to_dict

# Pytest records warnings instead of printing them, so a NumPy warning
# would not show in the captured stderr that the tests below check.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SRC = Path(__file__).resolve().parent.parent / "src"

EXACT_SYNTH = {
    "d": 30, "p": 10, "k": 15, "l": 5, "n_per_class": 10,
    "noise_sigma": 0.0, "irc_distortion": 0.0, "defect_pairs": 0, "seed": 0,
}
EXACT_FLAGS = [
    "--m", "10", "--lambda", "1e-6", "--gamma", "1e-10", "--eta", "1e-10",
    "--train-max-iter", "2", "--test-max-iter", "2",
]


def write_synth_config(tmp_path, **overrides):
    cfg = dict(EXACT_SYNTH)
    cfg.update(overrides)
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def exact_data_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("exact")
    cfg = write_synth_config(tmp)
    out = tmp / "data"
    assert main(["synth", "--config", str(cfg), "--out-dir", str(out)]) == 0
    return out


class TestSynthCommand:
    def test_writes_the_dataset_layout(self, exact_data_dir):
        names = {p.name for p in exact_data_dir.iterdir()}
        assert names == {
            "train_features.dmx", "train_labels.json",
            "test_features.dmx", "test_labels.json",
            "embeddings.dmx", "split.json",
        }
        X = dio.load_matrix(exact_data_dir / "train_features.dmx")
        assert X.shape == (30, 150)

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({"d": 4, "p": 2, "k": 2, "l": 1,
                                   "n_per_class": 1, "sigma": 0.1}))
        code = main(["synth", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert "sigma" in err["message"]

    @pytest.mark.parametrize("overrides", [
        {"d": "30"}, {"d": 30.5}, {"n_per_class": True}, {"noise_sigma": "0"}, {"seed": None},
    ])
    def test_config_value_of_wrong_type_exits_2(self, tmp_path, capsys, overrides):
        cfg = write_synth_config(tmp_path, **overrides)
        assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
        assert one_json_error(capsys) == "ValidationError"
        assert not (tmp_path / "out").exists()

    def test_missing_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({key: v for key, v in EXACT_SYNTH.items() if key != "p"}))
        assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError" and "'p'" in err["message"]

    def test_infeasible_geometry_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({"d": 2, "p": 8, "k": 3, "l": 1,
                                   "n_per_class": 1}))
        assert main(["synth", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InfeasibleConfig"

    def test_missing_config_file_exits_4(self, tmp_path, capsys):
        code = main(["synth", "--config", str(tmp_path / "none.json"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


class TestPipelineCommand:
    def test_exact_world_scores_perfectly(self, exact_data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["pipeline", "--data-dir", str(exact_data_dir),
                     "--out-dir", str(out)] + EXACT_FLAGS)
        assert code == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "iteration,mode,mean_per_class_acc,top1,cm,irc_gap"
        rows = [line.split(",") for line in lines[1:]]
        # inductive row + one row per transductive iteration
        assert [r[0] for r in rows] == ["0", "1", "2"]
        assert all(r[1] == "czsr" for r in rows)
        assert all(float(r[2]) == 1.0 for r in rows)
        assert all(float(r[3]) == 1.0 for r in rows)
        assert float(rows[0][4]) >= 1.0 - 1e-6   # consistency measure
        assert float(rows[0][5]) <= 1e-8          # relationship gap
        # per-iteration artefacts
        assert (out / "model" / "model.json").exists()
        assert (out / "pred_inductive.json").exists()
        assert (out / "eval_inductive.json").exists()
        for t in (1, 2):
            assert (out / f"pred_iter{t}.json").exists()
            assert (out / f"eval_iter{t}.json").exists()
            assert (out / f"ktilde_u_iter{t}.dmx").exists()
        assert "iteration 0" in capsys.readouterr().out

    def test_reruns_are_byte_identical(self, exact_data_dir, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["pipeline", "--data-dir", str(exact_data_dir),
                         "--out-dir", str(out)] + EXACT_FLAGS) == 0
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel

    def test_gzsr_mode_flag(self, exact_data_dir, tmp_path):
        out = tmp_path / "run"
        code = main(["pipeline", "--data-dir", str(exact_data_dir),
                     "--out-dir", str(out), "--mode", "gzsr"] + EXACT_FLAGS)
        assert code == 0
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert all(r.split(",")[1] == "gzsr" for r in rows)
        pred = json.loads((out / "pred_inductive.json").read_text())
        assert len(pred["candidates"]) == 20  # 15 seen + 5 unseen


class TestTrainPredictEvalChain:
    @pytest.fixture(scope="class")
    def chain(self, exact_data_dir, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("chain")
        model_dir = tmp / "model"
        code = main([
            "train",
            "--features", str(exact_data_dir / "train_features.dmx"),
            "--labels", str(exact_data_dir / "train_labels.json"),
            "--split", str(exact_data_dir / "split.json"),
            "--embeddings", str(exact_data_dir / "embeddings.dmx"),
            "--model-dir", str(model_dir),
        ] + EXACT_FLAGS)
        assert code == 0
        return tmp, model_dir

    def test_train_writes_a_loadable_model(self, chain):
        _, model_dir = chain
        model = dio.load_model(model_dir)
        assert model.config.m == 10
        assert model.config.lam == 1e-6

    def test_transductive_predict_and_eval(self, chain, exact_data_dir):
        tmp, model_dir = chain
        pred_path = tmp / "pred.json"
        code = main([
            "predict", "--model-dir", str(model_dir),
            "--test-features", str(exact_data_dir / "test_features.dmx"),
            "--embeddings", str(exact_data_dir / "embeddings.dmx"),
            "--split", str(exact_data_dir / "split.json"),
            "--out", str(pred_path),
        ])
        assert code == 0
        assert pred_path.exists()
        # transductive prototypes land next to the prediction
        ktilde = tmp / "pred_ktilde_u.dmx"
        assert ktilde.exists()
        assert dio.load_matrix(ktilde).shape == (30, 5)

        eval_path = tmp / "eval.json"
        code = main([
            "eval", "--pred", str(pred_path),
            "--truth", str(exact_data_dir / "test_labels.json"),
            "--topk", "1,3", "--out", str(eval_path),
        ])
        assert code == 0
        report = json.loads(eval_path.read_text())
        assert report["mean_per_class_accuracy"] == 1.0
        assert report["top_k_accuracy"]["1"] == 1.0
        assert report["top_k_accuracy"]["3"] == 1.0
        assert (tmp / "eval_confusion.csv").exists()

    def test_inductive_predict_skips_prototype_file(self, chain, exact_data_dir):
        tmp, model_dir = chain
        pred_path = tmp / "ind.json"
        code = main([
            "predict", "--model-dir", str(model_dir), "--inductive",
            "--test-features", str(exact_data_dir / "test_features.dmx"),
            "--embeddings", str(exact_data_dir / "embeddings.dmx"),
            "--split", str(exact_data_dir / "split.json"),
            "--out", str(pred_path),
        ])
        assert code == 0
        assert not (tmp / "ind_ktilde_u.dmx").exists()
        pred = json.loads(pred_path.read_text())
        truth = json.loads((exact_data_dir / "test_labels.json").read_text())
        assert pred["predicted"] == truth

    def test_predict_single_iteration_flag(self, chain, exact_data_dir):
        tmp, model_dir = chain
        code = main([
            "predict", "--model-dir", str(model_dir), "--test-max-iter", "1",
            "--test-features", str(exact_data_dir / "test_features.dmx"),
            "--embeddings", str(exact_data_dir / "embeddings.dmx"),
            "--split", str(exact_data_dir / "split.json"),
            "--out", str(tmp / "it1.json"),
        ])
        assert code == 0

    def test_flags_override_config_file(self, exact_data_dir, tmp_path):
        run_cfg = tmp_path / "run.json"
        run_cfg.write_text(json.dumps({
            "m": 5, "lambda": 1e-6, "gamma": 1e-10, "eta": 1e-10,
            "train_max_iter": 2, "test_max_iter": 2,
        }))
        model_dir = tmp_path / "model"
        code = main([
            "train",
            "--features", str(exact_data_dir / "train_features.dmx"),
            "--labels", str(exact_data_dir / "train_labels.json"),
            "--split", str(exact_data_dir / "split.json"),
            "--embeddings", str(exact_data_dir / "embeddings.dmx"),
            "--config", str(run_cfg), "--m", "3",
            "--model-dir", str(model_dir),
        ])
        assert code == 0
        model = dio.load_model(model_dir)
        assert model.config.m == 3          # flag beats file
        assert model.config.lam == 1e-6     # file beats default


def predict_argv(model_dir, data_dir, out):
    return [
        "predict", "--model-dir", str(model_dir),
        "--test-features", str(data_dir / "test_features.dmx"),
        "--embeddings", str(data_dir / "embeddings.dmx"),
        "--split", str(data_dir / "split.json"),
        "--out", str(out),
    ]


def train_model(data_dir, model_dir, *flags):
    assert main([
        "train",
        "--features", str(data_dir / "train_features.dmx"),
        "--labels", str(data_dir / "train_labels.json"),
        "--split", str(data_dir / "split.json"),
        "--embeddings", str(data_dir / "embeddings.dmx"),
        "--model-dir", str(model_dir),
    ] + EXACT_FLAGS + list(flags)) == 0
    return model_dir


def copy_model(source, target, text=False):
    """Copy a model directory; with ``text``, as ``dmap-model 1`` (``.dmx`` files)."""
    target.mkdir()
    for path in source.iterdir():
        if text and path.suffix == ".npy":
            dio.save_matrix(dio.load_matrix(path), target / f"{path.stem}.dmx")
        else:
            (target / path.name).write_bytes(path.read_bytes())
    if text:
        meta = json.loads((target / "model.json").read_text())
        (target / "model.json").write_text(json.dumps({**meta, "schema": "dmap-model 1"}))


def one_json_error(capsys) -> str:
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])["error"]


class TestPredictOverrides:
    """At predict time only the inference-time settings may change; the
    config file and the flags overlay the model's stored config."""

    @pytest.fixture(scope="class")
    def plain_model(self, exact_data_dir, tmp_path_factory):
        return train_model(exact_data_dir, tmp_path_factory.mktemp("plain") / "model")

    @pytest.fixture(scope="class")
    def centred_model(self, exact_data_dir, tmp_path_factory):
        return train_model(exact_data_dir, tmp_path_factory.mktemp("centred") / "model",
                           "--center")

    @pytest.mark.parametrize("flags, file_config", [
        (["--gamma", "1"], {"gamma": 1.0}),
        (["--eta", "1"], {"eta": 1.0}),
        (["--normalize"], {"normalize": True}),
        (["--center"], {"center": True}),
        (["--train-max-iter", "0"], {"train_max_iter": 0}),
        (["--convergence-tol", "0.01"], {"convergence_tol": 0.01}),
    ])
    def test_changing_a_trained_setting_exits_2(self, plain_model, exact_data_dir,
                                                 tmp_path, capsys, flags, file_config):
        out = tmp_path / "pred.json"
        run_cfg = tmp_path / "run.json"
        run_cfg.write_text(json.dumps(file_config))
        for extra in (flags, ["--config", str(run_cfg)]):
            assert main(predict_argv(plain_model, exact_data_dir, out) + extra) == 2
            assert one_json_error(capsys) == "ValidationError"
            assert not out.exists()

    def test_the_models_own_values_are_allowed(self, plain_model, exact_data_dir, tmp_path):
        run_cfg = tmp_path / "run.json"
        run_cfg.write_text(json.dumps({"normalize": False, "center": False,
                                       "convergence_tol": 1e-4}))
        plain, same = tmp_path / "plain.json", tmp_path / "same.json"
        assert main(predict_argv(plain_model, exact_data_dir, plain)) == 0
        assert main(predict_argv(plain_model, exact_data_dir, same) + [
            "--config", str(run_cfg), "--gamma", "1e-10", "--eta", "1e-10",
            "--train-max-iter", "2", "--no-center", "--no-normalize",
        ]) == 0
        assert plain.read_bytes() == same.read_bytes()

    def test_no_center_on_a_centred_model_exits_2(self, centred_model, exact_data_dir,
                                                  tmp_path, capsys):
        out = tmp_path / "pred.json"
        assert main(predict_argv(centred_model, exact_data_dir, out) + ["--no-center"]) == 2
        assert one_json_error(capsys) == "ValidationError"
        assert not out.exists()

    def test_config_file_overlays_the_stored_config(self, centred_model, exact_data_dir,
                                                    tmp_path):
        run_cfg = tmp_path / "run.json"
        run_cfg.write_text(json.dumps({"m": 5}))
        by_file, by_flag = tmp_path / "file.json", tmp_path / "flag.json"
        assert main(predict_argv(centred_model, exact_data_dir, by_file)
                    + ["--config", str(run_cfg)]) == 0
        assert main(predict_argv(centred_model, exact_data_dir, by_flag)
                    + ["--m", "5"]) == 0
        assert by_file.read_bytes() == by_flag.read_bytes()
        assert ((tmp_path / "file_ktilde_u.dmx").read_bytes()
                == (tmp_path / "flag_ktilde_u.dmx").read_bytes())

    @pytest.mark.parametrize("key,value", [
        ("train_iterations_run", "x"), ("train_iterations_run", 1.5),
        ("train_iterations_run", -1), ("train_iterations_run", True),
        ("config", {"m": "10"}), ("config", {"m": 0}), ("config", {"depth": 3}),
        ("config", "m=10"), ("seen_class_ids", "c0"), ("seen_class_ids", [None]),
        # Repeated ids would make gzsr predict write repeated candidates.
        ("seen_class_ids", ["s00"] * EXACT_SYNTH["k"]),
        ("schema", "dmap-model 3"), ("schema", ["dmap-model 2"]),
    ])
    def test_model_json_bad_value_exits_4(self, plain_model, exact_data_dir,
                                          tmp_path, capsys, key, value):
        broken = tmp_path / "model"
        broken.mkdir()
        for path in plain_model.iterdir():
            (broken / path.name).write_bytes(path.read_bytes())
        meta = json.loads((broken / "model.json").read_text())
        meta[key] = value
        (broken / "model.json").write_text(json.dumps(meta))
        assert main(predict_argv(broken, exact_data_dir, tmp_path / "pred.json")) == 4
        assert one_json_error(capsys) == "ParseError"

    @pytest.mark.parametrize("key", ["config", "seen_class_ids", "train_iterations_run"])
    def test_model_json_missing_a_key_exits_4(self, plain_model, exact_data_dir,
                                              tmp_path, capsys, key):
        broken = tmp_path / "model"
        broken.mkdir()
        for path in plain_model.iterdir():
            (broken / path.name).write_bytes(path.read_bytes())
        meta = json.loads((broken / "model.json").read_text())
        del meta[key]
        (broken / "model.json").write_text(json.dumps(meta))
        with pytest.raises(ParseError, match=key):
            dio.load_model(broken)
        assert main(predict_argv(broken, exact_data_dir, tmp_path / "pred.json")) == 4
        assert one_json_error(capsys) == "ParseError"

    @pytest.mark.parametrize("name, cut", [
        # dmap-model 1 (text) directories
        ("f_tilde.dmx", np.s_[:-1, :]),      # rows differ from f_s
        ("feature_mean.dmx", np.s_[:-1, :]),  # length differs from f_s rows
        ("f_tilde.dmx", np.s_[:, :-1]),      # columns differ from k_tilde_s rows
        ("k_tilde_s.dmx", np.s_[:, :-1]),    # columns differ from seen_class_ids
        # dmap-model 2 (.npy) directories, as save_model writes them
        ("f_tilde.npy", np.s_[:-1, :]),
        ("feature_mean.npy", np.s_[:-1, :]),
        ("f_tilde.npy", np.s_[:, :-1]),
        ("k_tilde_s.npy", np.s_[:, :-1]),
    ])
    def test_model_matrices_of_disagreeing_shape_exit_4(self, centred_model, exact_data_dir,
                                                        tmp_path, capsys, name, cut):
        broken = tmp_path / "model"
        copy_model(centred_model, broken, text=name.endswith(".dmx"))
        dio.save_matrix(dio.load_matrix(broken / name)[cut], broken / name)
        with pytest.raises(ShapeMismatch, match=name):
            dio.load_model(broken)
        assert main(predict_argv(broken, exact_data_dir, tmp_path / "pred.json")) == 4
        assert one_json_error(capsys) == "ShapeMismatch"

    @pytest.mark.parametrize("edit", [
        lambda meta: meta.update(has_feature_mean=False),
        lambda meta: meta.pop("has_feature_mean"),
        lambda meta: meta["config"].update(center=False),
    ])
    def test_center_disagreeing_with_feature_mean_exits_4(self, centred_model, exact_data_dir,
                                                          tmp_path, capsys, edit):
        # Each edit used to load, and predict ran centred on the test batch's
        # own mean, or uncentred with a stored mean.
        broken = tmp_path / "model"
        broken.mkdir()
        for path in centred_model.iterdir():
            (broken / path.name).write_bytes(path.read_bytes())
        meta = json.loads((broken / "model.json").read_text())
        edit(meta)
        (broken / "model.json").write_text(json.dumps(meta))
        with pytest.raises(ParseError, match="has_feature_mean"):
            dio.load_model(broken)
        assert main(predict_argv(broken, exact_data_dir, tmp_path / "pred.json")) == 4
        assert one_json_error(capsys) == "ParseError"
        assert not (tmp_path / "pred.json").exists()


#: A dmap-model 1 directory, its inputs and the predictions that its writer's
#: version of ``dmap predict`` made from them (see tests/test_io.py).
V1_FIXTURE = Path(__file__).parent / "data" / "model_v1"


@pytest.mark.parametrize("out, flags", [
    ("pred_transductive.json", []),
    ("pred_inductive.json", ["--inductive"]),
    ("pred_gzsr.json", ["--inductive", "--mode", "gzsr"]),
])
@pytest.mark.parametrize("schema", ["v1", "resaved-v2"])
def test_predict_on_a_v1_model_gives_its_writers_bytes(tmp_path, out, flags, schema):
    model_dir = V1_FIXTURE / "model"
    if schema == "resaved-v2":
        model_dir = tmp_path / "model"
        dio.save_model(dio.load_model(V1_FIXTURE / "model"), model_dir)
        assert (model_dir / "f_tilde.npy").exists()
    assert main(predict_argv(model_dir, V1_FIXTURE, tmp_path / out) + flags) == 0
    assert (tmp_path / out).read_bytes() == (V1_FIXTURE / out).read_bytes()
    ktilde = out.replace(".json", "_ktilde_u.dmx")
    if flags:
        assert not (tmp_path / ktilde).exists()
    else:
        assert (tmp_path / ktilde).read_bytes() == (V1_FIXTURE / ktilde).read_bytes()


def run_dmap(argv, **env):
    """Run ``python -m dmap.cli ARGV`` in a fresh interpreter, with the
    environment of :func:`child_env`."""
    return subprocess.run([sys.executable, "-m", "dmap.cli", *argv],
                          env=child_env(**env), capture_output=True, text=True)


def child_env(**env):
    """This process's environment with ``src`` on the path and ``env`` laid
    over it; a ``None`` value removes the variable."""
    merged = {**os.environ, "PYTHONPATH": str(SRC), **env}
    return {name: value for name, value in merged.items() if value is not None}


@pytest.mark.parametrize("feature_scale, unseen_scale, flags, error_at", [
    (1e300, 1e300, ["--inductive"], "scores"),
    (1e6, 1e308, ["--inductive"], "scores"),
    (1e6, 1e308, [], "search keys"),
], ids=["inductive-1e300", "inductive-1e308", "transductive-1e308"])
def test_overflowing_predict_exits_3(exact_data_dir, tmp_path, feature_scale, unseen_scale,
                                     flags, error_at):
    # Every input is finite, but a product of them overflows.  The error
    # is raised where the overflow arises, in place of NumPy's warnings.
    # exact_data_dir and EXACT_FLAGS are exact_recovery_setup()'s world.
    model_dir = train_model(exact_data_dir, tmp_path / "model")
    data = tmp_path / "data"
    data.mkdir()
    (data / "split.json").write_bytes((exact_data_dir / "split.json").read_bytes())
    emb = dio.load_matrix(exact_data_dir / "embeddings.dmx")
    emb[:, EXACT_SYNTH["k"]:] *= unseen_scale
    dio.save_matrix(emb, data / "embeddings.dmx")
    dio.save_matrix(dio.load_matrix(exact_data_dir / "test_features.dmx") * feature_scale,
                    data / "test_features.dmx")
    out = tmp_path / "pred.json"
    result = run_dmap(predict_argv(model_dir, data, out) + flags)
    assert result.returncode == 3
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    err = json.loads(lines[0])
    assert err["error"] == "NumericalError" and err["message"].startswith(error_at)
    assert not out.exists() and not (tmp_path / "pred_ktilde_u.dmx").exists()


def copy_data_dir(source, target, edit=lambda name, matrix: matrix):
    """Copy a dataset directory, each ``.dmx`` matrix through ``edit``."""
    target.mkdir()
    for path in source.iterdir():
        if path.suffix == ".dmx":
            dio.save_matrix(edit(path.name, dio.load_matrix(path)), target / path.name)
        else:
            (target / path.name).write_bytes(path.read_bytes())
    return target


def scaled(name, factor):
    """A ``copy_data_dir`` edit that multiplies the matrix file NAME by FACTOR."""
    return lambda file, matrix: matrix * factor if file == name else matrix


def assert_one_error_line(result, error, message):
    assert result.returncode == 3, result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    err = json.loads(lines[0])
    assert err["error"] == error and err["message"].startswith(message), err


@pytest.mark.parametrize("name, flags, error, message", [
    ("train_features.dmx", [], "SingularSystem", "feature Gram"),
    ("embeddings.dmx", [], "SingularSystem", "embedding Gram"),
    ("test_features.dmx", ["--normalize"], "NumericalError", "consistency terms"),
], ids=["feature-gram", "embedding-gram", "consistency"])
def test_overflowing_pipeline_exits_3(exact_data_dir, tmp_path, name, flags, error, message):
    # Inputs x1e200: a Gram that overflows used to print NumPy's warning
    # before its error line; overflowing consistency images exited 0 with
    # cm = nan and irc_gap = inf in summary.csv.
    data = copy_data_dir(exact_data_dir, tmp_path / "data", scaled(name, 1e200))
    result = run_dmap(["pipeline", "--data-dir", str(data), "--out-dir", str(tmp_path / "out"),
                       "--gamma", "1", "--eta", "1", "--m", "5", *flags])
    assert_one_error_line(result, error, message)
    assert not (tmp_path / "out" / "summary.csv").exists()


def test_overflowing_normalisation_exits_3(exact_data_dir, tmp_path):
    # The test features' norms overflow; normalising used to zero them and
    # predict at chance.
    model_dir = train_model(exact_data_dir, tmp_path / "model", "--gamma", "1", "--eta", "1",
                            "--normalize")
    data = copy_data_dir(exact_data_dir, tmp_path / "data", scaled("test_features.dmx", 1e200))
    out = tmp_path / "pred.json"
    assert_one_error_line(run_dmap(predict_argv(model_dir, data, out)), "NumericalError",
                          "column norms are not finite")
    assert not out.exists()


def test_overflowing_preinspect_exits_3(exact_data_dir, tmp_path):
    # The distances overflow; the default epsilon was Infinity, written as
    # "epsilon": Infinity, which is not JSON.
    data = copy_data_dir(exact_data_dir, tmp_path / "data", scaled("embeddings.dmx", 1e200))
    out = tmp_path / "defects.json"
    result = run_dmap(["preinspect", "--kseen", str(data / "embeddings.dmx"),
                       "--kunseen", str(data / "embeddings.dmx"), "--out", str(out)])
    assert_one_error_line(result, "NumericalError", "projection distances")
    assert not out.exists()


def test_pipeline_normalize_equals_normalised_files(exact_data_dir, tmp_path, capsys):
    unit = copy_data_dir(exact_data_dir, tmp_path / "unit",
                         lambda name, matrix: l2_normalize_columns(matrix))
    flags = ["--gamma", "1", "--eta", "1", "--m", "5"]
    assert main(["pipeline", "--data-dir", str(exact_data_dir), "--out-dir",
                 str(tmp_path / "raw"), "--normalize", *flags]) == 0
    assert main(["pipeline", "--data-dir", str(unit), "--out-dir", str(tmp_path / "unit_out"),
                 *flags]) == 0
    model = json.loads((tmp_path / "raw" / "model" / "model.json").read_text())
    assert model["config"]["normalize"] is True
    outputs = {path.name: path.read_bytes() for pattern in ("pred_*", "eval_*", "ktilde_*")
               for path in (tmp_path / "raw").glob(pattern)}
    assert len(outputs) == 8
    assert outputs == {name: (tmp_path / "unit_out" / name).read_bytes() for name in outputs}


def test_pipeline_reads_npy_data_dir_with_the_same_results(exact_data_dir, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for path in exact_data_dir.iterdir():
        if path.suffix == ".dmx":
            dio.save_matrix(dio.load_matrix(path), data / f"{path.stem}.npy")
        else:
            (data / path.name).write_bytes(path.read_bytes())
    for directory, out in ((exact_data_dir, "text"), (data, "npy")):
        assert main(["pipeline", "--data-dir", str(directory), "--out-dir", str(tmp_path / out),
                     *EXACT_FLAGS]) == 0
    for path in sorted((tmp_path / "text").rglob("*")):
        if path.is_file():
            assert path.read_bytes() == (tmp_path / "npy" / path.relative_to(
                tmp_path / "text")).read_bytes(), path.name
    (data / "embeddings.dmx").write_bytes((exact_data_dir / "embeddings.dmx").read_bytes())
    capsys.readouterr()
    assert main(["pipeline", "--data-dir", str(data), "--out-dir", str(tmp_path / "both"),
                 *EXACT_FLAGS]) == 4
    assert one_json_error(capsys) == "ParseError"


@pytest.mark.parametrize("command", ["cm", "train", "predict", "pipeline"])
def test_embedding_columns_disagreeing_with_split_exit_4(command, exact_data_dir,
                                                         tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for path in exact_data_dir.iterdir():
        (data / path.name).write_bytes(path.read_bytes())
    model_dir = train_model(data, tmp_path / "model")
    emb = dio.load_matrix(data / "embeddings.dmx")
    dio.save_matrix(emb[:, :-1], data / "embeddings.dmx")
    common = ["--split", str(data / "split.json"),
              "--embeddings", str(data / "embeddings.dmx")]
    argv = {
        "cm": ["cm", "--features", str(data / "train_features.dmx"),
               "--labels", str(data / "train_labels.json"),
               "--out", str(tmp_path / "cm.json")] + common,
        "train": ["train", "--features", str(data / "train_features.dmx"),
                  "--labels", str(data / "train_labels.json"),
                  "--model-dir", str(tmp_path / "model2")] + common,
        "predict": predict_argv(model_dir, data, tmp_path / "pred.json"),
        "pipeline": ["pipeline", "--data-dir", str(data), "--out-dir", str(tmp_path / "run")],
    }[command]
    assert main(argv) == 4
    assert one_json_error(capsys) == "ShapeMismatch"


@pytest.mark.parametrize("name, entry", [
    ("train_labels.json", ["c0"]), ("train_labels.json", {"id": 0}),
    ("train_labels.json", True), ("train_labels.json", 1.5),
    ("split.json", ["c0"]), ("split.json", {"id": 0}), ("split.json", None),
])
def test_class_id_entry_of_wrong_type_exits_4(name, entry, exact_data_dir, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for path in exact_data_dir.iterdir():
        (data / path.name).write_bytes(path.read_bytes())
    obj = json.loads((data / name).read_text())
    (obj["unseen"] if name == "split.json" else obj)[3] = entry
    (data / name).write_text(json.dumps(obj))
    assert main(["train",
                 "--features", str(data / "train_features.dmx"),
                 "--labels", str(data / "train_labels.json"),
                 "--split", str(data / "split.json"),
                 "--embeddings", str(data / "embeddings.dmx"),
                 "--model-dir", str(tmp_path / "model")]) == 4
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ParseError"
    assert name in err["message"] and "entry 3" in err["message"]


@pytest.mark.parametrize("file_config", [
    {"m": "5"}, {"m": 5.0}, {"m": True}, {"gamma": "1"}, {"test_max_iter": None},
    {"normalize": "yes"}, {"center": 1},
])
def test_run_config_value_of_wrong_type_exits_2(exact_data_dir, tmp_path, capsys,
                                                file_config):
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps(file_config))
    assert main([
        "train",
        "--features", str(exact_data_dir / "train_features.dmx"),
        "--labels", str(exact_data_dir / "train_labels.json"),
        "--split", str(exact_data_dir / "split.json"),
        "--embeddings", str(exact_data_dir / "embeddings.dmx"),
        "--config", str(run_cfg), "--model-dir", str(tmp_path / "model"),
    ]) == 2
    assert one_json_error(capsys) == "ValidationError"
    assert not (tmp_path / "model").exists()


def train_argv(data_dir, model_dir, features=None):
    return ["train", "--features", str(features or data_dir / "train_features.dmx"),
            "--labels", str(data_dir / "train_labels.json"),
            "--split", str(data_dir / "split.json"),
            "--embeddings", str(data_dir / "embeddings.dmx"),
            "--model-dir", str(model_dir)]


@pytest.mark.parametrize("flags, file_config", [
    (["--gamma", "nan"], None), (["--gamma", "inf"], None),
    (["--convergence-tol", "nan"], None), (["--lambda", "nan"], None),
    ([], {"gamma": float("nan")}), ([], {"convergence_tol": float("inf")}),
])
def test_non_finite_setting_exits_2(exact_data_dir, tmp_path, capsys, flags, file_config):
    if file_config is not None:
        (tmp_path / "run.json").write_text(json.dumps(file_config))  # writes NaN / Infinity
        flags = ["--config", str(tmp_path / "run.json")]
    assert main(train_argv(exact_data_dir, tmp_path / "model") + flags) == 2
    assert one_json_error(capsys) == "ValidationError"
    assert not (tmp_path / "model").exists()


@pytest.mark.parametrize("command", ["train", "cm"])
def test_overflowing_features_exit_3(command, exact_data_dir, tmp_path, capsys):
    # Finite 1e200-scale features whose Gram matrices overflow.
    X = dio.load_matrix(exact_data_dir / "train_features.dmx")
    labels = json.loads((exact_data_dir / "train_labels.json").read_text())
    if command == "cm":  # cm needs instances of the unseen classes too
        X = np.concatenate([X, dio.load_matrix(exact_data_dir / "test_features.dmx")], axis=1)
        labels += json.loads((exact_data_dir / "test_labels.json").read_text())
    dio.save_matrix(1e200 * X, tmp_path / "big.dmx")
    (tmp_path / "labels.json").write_text(json.dumps(labels))
    argv = {
        "train": train_argv(exact_data_dir, tmp_path / "model", tmp_path / "big.dmx"),
        "cm": ["cm", "--features", str(tmp_path / "big.dmx"),
               "--labels", str(tmp_path / "labels.json"),
               "--split", str(exact_data_dir / "split.json"),
               "--embeddings", str(exact_data_dir / "embeddings.dmx"),
               "--out", str(tmp_path / "cm.json")],
    }[command]
    with np.errstate(all="ignore"):
        assert main(argv) == 3
    assert one_json_error(capsys) == "SingularSystem"


class TestEvalCommand:
    def test_hand_written_prediction(self, tmp_path):
        scores = np.array([[3.0, 0.0, 2.0], [1.0, 2.0, 1.0]])
        pred = Prediction(
            instance_ids=("x0", "x1", "x2"),
            predicted_class=("a", "b", "a"),
            score_matrix=scores,
            candidate_ids=("a", "b"),
        )
        pred_path = tmp_path / "pred.json"
        dio.save_prediction(pred, "czsr", pred_path)
        (tmp_path / "truth.json").write_text(json.dumps(["a", "b", "b"]))
        out = tmp_path / "eval.json"
        code = main(["eval", "--pred", str(pred_path),
                     "--truth", str(tmp_path / "truth.json"),
                     "--topk", "1,2", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["per_class_accuracy"] == {"a": 1.0, "b": 0.5}
        assert report["mean_per_class_accuracy"] == 0.75
        assert report["top_k_accuracy"] == {"1": 2 / 3, "2": 1.0}
        assert (tmp_path / "eval_confusion.csv").read_text() == (
            "true,a,b\na,1,0\nb,1,1\n"
        )

    def test_ragged_scores_exit_4(self, tmp_path, capsys):
        pred = Prediction(("x0", "x1"), ("a", "b"), np.eye(2), ("a", "b"))
        obj = prediction_to_dict(pred, "czsr")
        obj["scores"][1].pop()
        (tmp_path / "pred.json").write_text(json.dumps(obj))
        (tmp_path / "truth.json").write_text(json.dumps(["a", "b"]))
        code = main(["eval", "--pred", str(tmp_path / "pred.json"),
                     "--truth", str(tmp_path / "truth.json"),
                     "--out", str(tmp_path / "eval.json")])
        assert code == 4
        assert one_json_error(capsys) == "ParseError"

    @pytest.mark.parametrize("edit", [
        lambda obj: obj.update(predicted=["a", "z"]),        # not a candidate
        lambda obj: obj.update(instance_ids="x0"),           # not an array
        lambda obj: obj.update(instance_ids=["x0", ["x1"]]),  # a list entry
        lambda obj: obj["predicted"].pop(),                  # shorter than the ids
        lambda obj: obj.update(predicted=["a", ["b"]]),      # a list entry
        lambda obj: obj.update(candidates={"a": 0}),         # not an array
        lambda obj: obj["scores"].pop(),                     # one candidate row short
        lambda obj: obj.update(candidates=["a", "a"], predicted=["a", "a"]),  # repeated
    ])
    def test_malformed_prediction_exits_4(self, tmp_path, capsys, edit):
        pred = Prediction(("x0", "x1"), ("a", "b"), np.eye(2), ("a", "b"))
        obj = prediction_to_dict(pred, "czsr")
        edit(obj)
        (tmp_path / "pred.json").write_text(json.dumps(obj))
        (tmp_path / "truth.json").write_text(json.dumps(["a", "b"]))
        code = main(["eval", "--pred", str(tmp_path / "pred.json"),
                     "--truth", str(tmp_path / "truth.json"),
                     "--out", str(tmp_path / "eval.json")])
        assert code == 4
        assert one_json_error(capsys) == "ParseError"
        assert not (tmp_path / "eval.json").exists()

    @pytest.mark.parametrize("mode", [None, 1, "CZSR", ""])
    def test_prediction_with_an_unknown_mode_exits_4(self, tmp_path, capsys, mode):
        # Also when --mode would take the stored mode's place.
        pred = Prediction(("x0", "x1"), ("a", "b"), np.eye(2), ("a", "b"))
        obj = prediction_to_dict(pred, mode)
        (tmp_path / "pred.json").write_text(json.dumps(obj))
        (tmp_path / "truth.json").write_text(json.dumps(["a", "b"]))
        for flags in ([], ["--mode", "czsr"]):
            code = main(["eval", "--pred", str(tmp_path / "pred.json"),
                         "--truth", str(tmp_path / "truth.json"),
                         "--out", str(tmp_path / "eval.json"), *flags])
            assert code == 4
            error = json.loads(capsys.readouterr().err)
            assert error["error"] == "ParseError"
            assert error["message"] == (f"prediction mode must be 'czsr' or 'gzsr', got "
                                        f"{mode!r}: {tmp_path / 'pred.json'}")
            assert not (tmp_path / "eval.json").exists()

    @pytest.mark.parametrize("topk", ["a", "1,x", "1,,2"])
    def test_bad_topk_exits_2(self, tmp_path, capsys, topk):
        pred = Prediction(("x0",), ("a",), np.array([[1.0]]), ("a",))
        dio.save_prediction(pred, "czsr", tmp_path / "pred.json")
        (tmp_path / "truth.json").write_text(json.dumps(["a"]))
        code = main(["eval", "--pred", str(tmp_path / "pred.json"),
                     "--truth", str(tmp_path / "truth.json"), "--topk", topk,
                     "--out", str(tmp_path / "eval.json")])
        assert code == 2
        assert one_json_error(capsys) == "ValidationError"

    def test_truth_count_mismatch_exits_2(self, tmp_path, capsys):
        pred = Prediction(("x0",), ("a",), np.array([[1.0]]), ("a",))
        dio.save_prediction(pred, "czsr", tmp_path / "pred.json")
        (tmp_path / "truth.json").write_text(json.dumps(["a", "a"]))
        code = main(["eval", "--pred", str(tmp_path / "pred.json"),
                     "--truth", str(tmp_path / "truth.json"),
                     "--out", str(tmp_path / "eval.json")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "MissingInstance"


class TestPreinspectCommand:
    def test_flags_planted_pairs(self, tmp_path, capsys):
        from dmap.synth import SynthConfig, generate

        ds = generate(SynthConfig(d=16, p=12, k=6, l=6, n_per_class=1,
                                  defect_pairs=2, seed=0))
        dio.save_matrix(ds.embeddings.subset(ds.split.seen), tmp_path / "ks.dmx")
        dio.save_matrix(ds.embeddings.subset(ds.split.unseen), tmp_path / "ku.dmx")
        out = tmp_path / "defects.json"
        code = main(["preinspect", "--kseen", str(tmp_path / "ks.dmx"),
                     "--kunseen", str(tmp_path / "ku.dmx"),
                     "--epsilon", "1e-9", "--out", str(out)])
        assert code == 0
        assert "flagged 2 pair(s)" in capsys.readouterr().out
        report = json.loads(out.read_text())
        flagged = {(f["class_i"], f["class_j"]) for f in report["flagged_pairs"]}
        # generic class ids: the matrices carry no names
        assert flagged == {("u0000", "u0001"), ("u0002", "u0003")}

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-1"])
    def test_bad_epsilon_exits_2(self, tmp_path, capsys, epsilon):
        dio.save_matrix(np.eye(3, 2), tmp_path / "ks.dmx")
        dio.save_matrix(np.ones((3, 2)), tmp_path / "ku.dmx")
        code = main(["preinspect", "--kseen", str(tmp_path / "ks.dmx"),
                     "--kunseen", str(tmp_path / "ku.dmx"),
                     f"--epsilon={epsilon}", "--out", str(tmp_path / "defects.json")])
        assert code == 2
        assert one_json_error(capsys) == "ValidationError"
        assert not (tmp_path / "defects.json").exists()


class TestCmCommand:
    def test_exact_dataset_measures_as_consistent(self, exact_data_dir, tmp_path):
        # feed train+test features with all labels, as one matrix
        X_train = dio.load_matrix(exact_data_dir / "train_features.dmx")
        X_test = dio.load_matrix(exact_data_dir / "test_features.dmx")
        labels = (list(json.loads((exact_data_dir / "train_labels.json").read_text()))
                  + list(json.loads((exact_data_dir / "test_labels.json").read_text())))
        dio.save_matrix(np.concatenate([X_train, X_test], axis=1),
                        tmp_path / "all.dmx")
        (tmp_path / "labels.json").write_text(json.dumps(labels))
        out = tmp_path / "cm.json"
        code = main(["cm", "--features", str(tmp_path / "all.dmx"),
                     "--labels", str(tmp_path / "labels.json"),
                     "--split", str(exact_data_dir / "split.json"),
                     "--embeddings", str(exact_data_dir / "embeddings.dmx"),
                     "--lambda", "1e-6", "--out", str(out)])
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["cm"] >= 1.0 - 1e-6
        assert obj["irc_gap"] <= 1e-8
        assert obj["lambda"] == 1e-6


class TestExitCodes:
    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        # All-zero features with zero regularisation: the feature Gram is
        # singular and training must fail loudly.
        dio.save_matrix(np.zeros((2, 4)), tmp_path / "X.dmx")
        (tmp_path / "labels.json").write_text(json.dumps(["a", "a", "b", "b"]))
        (tmp_path / "split.json").write_text(
            json.dumps({"seen": ["a", "b"], "unseen": ["c"]})
        )
        dio.save_matrix(np.eye(2, 3) + 0.1, tmp_path / "emb.dmx")
        code = main([
            "train",
            "--features", str(tmp_path / "X.dmx"),
            "--labels", str(tmp_path / "labels.json"),
            "--split", str(tmp_path / "split.json"),
            "--embeddings", str(tmp_path / "emb.dmx"),
            "--gamma", "0", "--eta", "0",
            "--model-dir", str(tmp_path / "model"),
        ])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "SingularSystem"

    def test_malformed_matrix_exits_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.dmx"
        bad.write_text("dmap-matrix 1 2 2\n1.0 2.0\n3.0 nope\n")
        code = main(["preinspect", "--kseen", str(bad),
                     "--kunseen", str(bad), "--out", str(tmp_path / "o.json")])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert "line 3" in err["message"]

    def test_usage_errors_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert one_json_error(capsys) == "UsageError"
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert one_json_error(capsys) == "UsageError"

    def test_threads_flag_is_accepted(self, tmp_path):
        cfg = write_synth_config(tmp_path, d=6, p=3, k=4, l=2, n_per_class=1)
        assert main(["--threads", "2", "synth", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 0

    def test_threads_flag_after_the_command_is_a_usage_error(self, tmp_path, capsys):
        cfg = write_synth_config(tmp_path, d=6, p=3, k=4, l=2, n_per_class=1)
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
                  "--threads", "0"])
        assert exc.value.code == 2
        assert one_json_error(capsys) == "UsageError"


def test_threads_are_set_before_numpy_loads(tmp_path):
    # A finder first on sys.meta_path sees the first import of numpy, which
    # loads its OpenBLAS, and a ctypes.CDLL subclass sees each OpenBLAS that
    # dmap opens itself; each records the settings that OpenBLAS would read
    # at that moment.  The solves and synth's one-thread cap open NumPy's own
    # library, already loaded.
    probe = ("import ctypes, os, runpy, sys\n"
             "def settings(what):\n"
             "    print(what, os.environ.get('OPENBLAS_NUM_THREADS'),\n"
             "          os.environ.get('OPENBLAS_THREAD_TIMEOUT'), file=sys.stderr)\n"
             "class Probe:\n"
             "    def find_spec(self, name, path=None, target=None):\n"
             "        if name == 'numpy':\n"
             "            settings('numpy')\n"
             "class CDLL(ctypes.CDLL):\n"
             "    def __init__(self, name, *args, **kwargs):\n"
             "        if os.path.basename(name).startswith('libscipy_openblas'):\n"
             "            settings(os.path.basename(name).split('-')[0])\n"
             "        super().__init__(name, *args, **kwargs)\n"
             "sys.meta_path.insert(0, Probe())\n"
             "ctypes.CDLL = CDLL\n"
             "runpy.run_module('dmap.cli', run_name='__main__')\n")
    cfg = write_synth_config(tmp_path, d=6, p=3, k=4, l=2, n_per_class=3)
    env = child_env(OPENBLAS_NUM_THREADS=None, OPENBLAS_THREAD_TIMEOUT=None)
    result = subprocess.run([sys.executable, "-c", probe, "--threads", "1", "synth", "--config",
                             str(cfg), "--out-dir", str(tmp_path / "data")],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines() == ["numpy 1 4", "libscipy_openblas64_ 1 4"]
    result = subprocess.run([sys.executable, "-c", probe, "--threads", "1", "pipeline",
                             "--data-dir", str(tmp_path / "data"), "--out-dir",
                             str(tmp_path / "out"), "--m", "2", "--gamma", "1", "--eta", "1"],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines() == ["numpy 1 4", "libscipy_openblas64_ 1 4"]


@pytest.mark.parametrize("command", ["train", "predict", "pipeline"])
def test_one_flag_per_config_field_named_from_its_key(command):
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    actions = subparsers.choices[command]._actions
    for field in fields(DmapConfig):
        flags = [action.option_strings for action in actions if action.dest == field.name]
        flag = field.metadata.get("key", field.name).replace("_", "-")
        # A bool field's flag has a --no- form, so either value can be given.
        assert flags == [["--" + flag, "--no-" + flag] if field.type == "bool"
                         else ["--" + flag]]


@pytest.mark.parametrize("flag", ["--no-center", "--no-normalize"])
def test_a_no_flag_trains_the_bytes_of_no_flag(exact_data_dir, tmp_path, flag):
    plain = train_model(exact_data_dir, tmp_path / "plain")
    off = train_model(exact_data_dir, tmp_path / "off", flag)
    files = sorted(path.name for path in plain.iterdir())
    assert files == sorted(path.name for path in off.iterdir())
    assert all((plain / name).read_bytes() == (off / name).read_bytes() for name in files)


def test_a_no_flag_overrides_the_config_file(exact_data_dir, tmp_path):
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps({"center": True}))
    plain = train_model(exact_data_dir, tmp_path / "plain")
    off = train_model(exact_data_dir, tmp_path / "off", "--config", str(run_cfg), "--no-center")
    assert json.loads((off / "model.json").read_text()) == json.loads(
        (plain / "model.json").read_text())


# --- OpenBLAS worker timeout ---------------------------------------------------

def test_openblas_timeout_changes_no_output_byte(tmp_path):
    # The cub-cli bench world: at d=256 with 1,500 training columns
    # OpenBLAS threads its GEMM and LAPACK calls.
    cfg = write_synth_config(tmp_path, d=256, p=160, k=150, l=50, n_per_class=10,
                             noise_sigma=0.05, irc_distortion=0.2, seed=1)
    assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "data")]) == 0
    runs = {}
    for timeout in ("4", "28"):  # the package default, OpenBLAS's own
        out = tmp_path / f"timeout{timeout}"
        result = run_dmap(["--threads", "2", "pipeline", "--data-dir", str(tmp_path / "data"),
                           "--out-dir", str(out), "--m", "10", "--gamma", "1", "--eta", "1",
                           "--test-max-iter", "3"], OPENBLAS_THREAD_TIMEOUT=timeout)
        assert result.returncode == 0, result.stderr
        runs[timeout] = {path.relative_to(out): path.read_bytes()
                         for path in out.rglob("*") if path.is_file()}
    assert len(runs["4"]) == 16
    assert runs["4"] == runs["28"]


@pytest.mark.parametrize("preset, expected", [(None, "4"), ("28", "28")])
def test_import_sets_the_openblas_timeout_before_blas_loads(preset, expected):
    probe = ("import os, sys; import dmap; print(os.environ['OPENBLAS_THREAD_TIMEOUT'], "
             "'numpy' in sys.modules, 'scipy.linalg' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=child_env(OPENBLAS_THREAD_TIMEOUT=preset))
    assert result.stdout.split() == [expected, "False", "False"], result.stderr


def openblas_and_scipy_at_exit(argv):
    """``(number of OpenBLAS files mapped, scipy modules loaded)`` as the
    ``stderr`` line of a child ``dmap`` process run with ``argv``.  Every
    OpenBLAS build of NumPy's and SciPy's wheels is a libscipy_openblas file."""
    probe = ("import atexit, os, runpy, sys\n"
             "def report():\n"
             "    with open('/proc/self/maps') as maps:\n"
             "        paths = {line.split()[-1] for line in maps if len(line.split()) == 6}\n"
             "    openblas = [path for path in paths\n"
             "                if os.path.basename(path).startswith('libscipy_openblas')]\n"
             "    scipy = [name for name in sys.modules if name.split('.')[0] == 'scipy']\n"
             "    print(len(openblas), scipy, file=sys.stderr)\n"
             "atexit.register(report)\n"
             "runpy.run_module('dmap.cli', run_name='__main__')\n")
    result = subprocess.run([sys.executable, "-c", probe, *argv],
                            env=child_env(), capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stderr.splitlines()


def test_certified_pipeline_loads_one_scipy_openblas_without_scipy_linalg(tmp_path):
    # The cub-cli bench world at unit regularisers: the trace bound
    # certifies every Gram, so no eigvalsh is needed.
    cfg = write_synth_config(tmp_path, d=256, p=160, k=150, l=50, n_per_class=10,
                             noise_sigma=0.05, irc_distortion=0.2, seed=1)
    assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "data")]) == 0
    assert openblas_and_scipy_at_exit(
        ["pipeline", "--data-dir", str(tmp_path / "data"), "--out-dir", str(tmp_path / "out"),
         "--m", "10", "--gamma", "1", "--eta", "1", "--test-max-iter", "3"]) == ["1 []"]


def test_uncertified_pipeline_loads_one_openblas_and_no_scipy(tmp_path):
    # README's example: at these regularisers the trace bound certifies no
    # Gram, so every gate computes eigenvalues, in NumPy's own library.
    cfg = write_synth_config(tmp_path, seed=123)
    assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "data")]) == 0
    assert openblas_and_scipy_at_exit(
        ["pipeline", "--data-dir", str(tmp_path / "data"), "--out-dir", str(tmp_path / "out"),
         *EXACT_FLAGS]) == ["1 []"]


# --- malformed bytes and fuzzed inputs ----------------------------------------

@pytest.fixture(scope="module")
def small_world(tmp_path_factory):
    """File name -> bytes of valid inputs for ``preinspect``, ``cm`` and ``eval``."""
    from dmap.synth import SynthConfig, generate

    ds = generate(SynthConfig(d=6, p=3, k=4, l=2, n_per_class=2, seed=0))
    tmp = tmp_path_factory.mktemp("small_world")
    dio.save_matrix(ds.embeddings.subset(ds.split.seen), tmp / "ks.dmx")
    dio.save_matrix(ds.embeddings.subset(ds.split.unseen), tmp / "ku.dmx.gz")
    dio.save_matrix(np.concatenate([ds.train.features.data, ds.test_features.data], axis=1),
                    tmp / "features.dmx")
    dio.save_labels(tuple(ds.train.labels) + tuple(ds.test_labels), tmp / "labels.json")
    dio.save_split(ds.split, tmp / "split.json")
    dio.save_matrix(ds.embeddings.subset(ds.split.seen + ds.split.unseen), tmp / "emb.npy")
    dio.save_prediction(Prediction(("x0", "x1"), ("a", "b"), np.eye(2), ("a", "b")),
                        "czsr", tmp / "pred.json")
    dio.save_labels(["a", "b"], tmp / "truth.json")
    return {path.name: path.read_bytes() for path in tmp.iterdir()}


#: The files each command reads, by flag.
WORLD_INPUTS = {
    "preinspect": {"--kseen": "ks.dmx", "--kunseen": "ku.dmx.gz"},
    "cm": {"--features": "features.dmx", "--labels": "labels.json",
           "--split": "split.json", "--embeddings": "emb.npy"},
    "eval": {"--pred": "pred.json", "--truth": "truth.json"},
}


def world_argv(command, directory, flags=()):
    argv = [command, "--out", str(directory / "out.json"), *flags]
    for flag, name in WORLD_INPUTS[command].items():
        argv += [flag, str(directory / name)]
    return argv


def write_world(world, directory, **replaced):
    for name, raw in {**world, **replaced}.items():
        (directory / name).write_bytes(raw)


def npy_edit(edit, **kwargs):
    """A corruption that rewrites the ``.npy`` file's array through ``edit``."""
    def corrupt(raw):
        buf = io.BytesIO()
        np.lib.format.write_array(buf, edit(np.load(io.BytesIO(raw))), **kwargs)
        return buf.getvalue()
    return corrupt


def with_nan(arr):
    arr[0, 0] = np.nan
    return arr


def reserved_block_type(raw):
    """The gzip file ``raw`` with a first deflate block of the reserved type."""
    stream = gzip.compress(gzip.decompress(raw), mtime=0)  # a 10-byte header
    return stream[:10] + b"\xff" + stream[11:]


@pytest.mark.parametrize("command, name, corrupt, error, names_file", [
    # a byte that is not UTF-8, in a matrix, a labels, a split and a prediction file
    ("preinspect", "ks.dmx", lambda raw: raw.replace(b"\n", b"\n\xff", 1), "ParseError", True),
    ("cm", "labels.json", lambda raw: raw.replace(b'"', b'"\xff', 1), "ParseError", True),
    ("cm", "split.json", lambda raw: raw.replace(b'"', b'"\xff', 1), "ParseError", True),
    ("eval", "pred.json", lambda raw: raw.replace(b'"', b'"\xff', 1), "ParseError", True),
    # a truncated gzip stream, and one whose first deflate block has the reserved type
    ("preinspect", "ku.dmx.gz", lambda raw: raw[:-12], "ParseError", True),
    ("preinspect", "ku.dmx.gz", reserved_block_type, "ParseError", True),
    # JSON outside what the decoder converts: a 5000-digit integer and
    # nesting deeper than the recursion limit
    ("cm", "labels.json", lambda raw: b"[" + b"7" * 5000 + b"]", "ParseError", True),
    ("eval", "truth.json", lambda raw: b"[" * 100000, "ParseError", True),
    # header shapes that int() refuses or that no allocation could hold
    ("preinspect", "ks.dmx", lambda raw: b"dmap-matrix 1 " + b"1" * 5000 + b" 1\n1\n",
     "ParseError", False),
    ("preinspect", "ks.dmx", lambda raw: b"dmap-matrix 1 1 99999999999999\n1\n",
     "ShapeMismatch", False),
    # prediction scores that are valid JSON but not finite doubles
    ("eval", "pred.json", lambda raw: raw.replace(b"1.0", b"NaN", 1).replace(
        b"1.0", b"-Infinity", 1), "ParseError", True),
    ("eval", "pred.json", lambda raw: raw.replace(b"0.0", b"true", 1).replace(
        b"0.0", b"false", 1), "ParseError", True),
    ("eval", "pred.json", lambda raw: raw.replace(b"1.0", b"1" + b"0" * 400, 1),
     "ParseError", True),
    # .npy files: pickled objects, dtypes other than float32/float64, ranks
    # other than 2, no values, non-finite values, truncated or foreign bytes,
    # and a header shape the file cannot hold
    ("cm", "emb.npy", npy_edit(lambda a: a.astype(object), allow_pickle=True), "ParseError",
     True),
    ("cm", "emb.npy", npy_edit(lambda a: a.astype(np.int64)), "ParseError", True),
    ("cm", "emb.npy", npy_edit(lambda a: a.astype(np.float16)), "ParseError", True),
    ("cm", "emb.npy", npy_edit(np.ravel), "ParseError", True),
    ("cm", "emb.npy", npy_edit(lambda a: a[None]), "ParseError", True),
    ("cm", "emb.npy", npy_edit(lambda a: a[:, :0]), "ParseError", True),
    ("cm", "emb.npy", npy_edit(with_nan), "ParseError", True),
    ("cm", "emb.npy", npy_edit(lambda a: np.full_like(a, -np.inf)), "ParseError", True),
    ("cm", "emb.npy", lambda raw: raw[:-8], "ParseError", True),
    ("cm", "emb.npy", lambda raw: b"dmap-matrix 1 1 1\n1.0\n", "ParseError", True),
    ("cm", "emb.npy", lambda raw: raw.replace(b"(3, 6), }      ", b"(9999999, 6), }"),
     "ParseError", True),
], ids=["matrix-not-utf8", "labels-not-utf8", "split-not-utf8", "prediction-not-utf8",
        "gzip-truncated", "gzip-corrupted", "json-huge-integer", "json-deep-nesting",
        "header-huge-integer", "header-huge-shape", "prediction-nonfinite", "prediction-bool",
        "prediction-overflow", "npy-pickled", "npy-int64", "npy-float16", "npy-1d", "npy-3d",
        "npy-empty", "npy-nan", "npy-inf", "npy-truncated", "npy-not-npy", "npy-huge-shape"])
def test_malformed_bytes_exit_4(small_world, tmp_path, capsys, command, name, corrupt, error,
                                names_file):
    write_world(small_world, tmp_path, **{name: corrupt(small_world[name])})
    assert main(world_argv(command, tmp_path)) == 4
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == error
    assert (name in err["message"]) is names_file
    assert not (tmp_path / "out.json").exists()


def test_gzip_wrapped_npy_exits_4(small_world, tmp_path, capsys):
    write_world(small_world, tmp_path)
    (tmp_path / "emb.npy.gz").write_bytes(gzip.compress(small_world["emb.npy"], mtime=0))
    argv = world_argv("cm", tmp_path) + ["--embeddings", str(tmp_path / "emb.npy.gz")]
    assert main(argv) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError" and "emb.npy.gz" in err["message"]
    assert not (tmp_path / "out.json").exists()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6,
)
#: Random bytes, or the characters that matrix and JSON files are made of.
FILE_CHUNKS = st.binary(min_size=1, max_size=4) | st.text(
    alphabet=" \t\n0123456789.-+eE_,:[]{}\"naif", min_size=1, max_size=4).map(str.encode)


def mutated_bytes(data, raw):
    """``raw`` with a drawn chunk replaced, inserted, deleted or cut off."""
    i = data.draw(st.integers(0, len(raw)), label="offset")
    op = data.draw(st.sampled_from(["replace", "insert", "delete", "truncate"]), label="op")
    if op == "truncate":
        return raw[:i]
    if op == "delete":
        return raw[:i] + raw[i + data.draw(st.integers(1, 8), label="length"):]
    chunk = data.draw(FILE_CHUNKS, label="chunk")
    return raw[:i] + chunk + raw[i + (len(chunk) if op == "replace" else 0):]


def mutated_json(data, raw):
    """``raw`` with one value, at a drawn path, replaced by a drawn JSON value."""
    obj = json.loads(raw)
    holder, key = None, None
    node = obj
    while isinstance(node, (list, dict)) and node and data.draw(st.booleans(), label="deeper"):
        holder, key = node, data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                                      else range(len(node))), label="key")
        node = holder[key]
    value = data.draw(JSON_VALUES, label="value")
    if holder is None:
        obj = value
    else:
        holder[key] = value
    return json.dumps(obj).encode()  # NaN and Infinity included


#: Flag values that are not numbers: the parser refuses them (exit 2).
NOT_NUMBERS = st.sampled_from(["", "abc", "1,5", "1e", "--", "0x10", "1.0.0"])
#: Floats, or values that are not numbers.
FLOAT_VALUES = st.floats().map(repr) | NOT_NUMBERS
#: --threads values below 1 or not integers; a valid count would set the
#: BLAS variables of this process.
BAD_THREADS = st.integers(max_value=0).map(str) | st.sampled_from(["1.5", "2e0"]) | NOT_NUMBERS

FLAG_VALUES = {
    "preinspect": lambda data: [f"--epsilon={data.draw(FLOAT_VALUES, label='epsilon')}"],
    "cm": lambda data: [f"--lambda={data.draw(FLOAT_VALUES, label='lambda')}"],
    "eval": lambda data: [
        f"--topk={data.draw(st.text(alphabet='0123456789,-+ x', max_size=6), label='topk')}",
        f"--mode={data.draw(st.sampled_from(['czsr', 'gzsr']), label='mode')}",
    ],
    # before the command
    "--threads": lambda data: [f"--threads={data.draw(BAD_THREADS, label='threads')}"],
}


@settings(max_examples=150)
@given(data=st.data())
def test_fuzzed_files_and_flags_exit_0_2_3_or_4(small_world, tmp_path_factory, data):
    command = data.draw(st.sampled_from(sorted(WORLD_INPUTS)), label="command")
    name = data.draw(st.sampled_from(sorted(WORLD_INPUTS[command].values())), label="file")
    raw = small_world[name]
    if name.endswith(".json") and data.draw(st.booleans(), label="as JSON"):
        raw = mutated_json(data, raw)
    elif data.draw(st.booleans(), label="mutate"):
        raw = mutated_bytes(data, raw)
    flags = FLAG_VALUES[command](data) if data.draw(st.booleans(), label="flags") else []
    threads = FLAG_VALUES["--threads"](data) if data.draw(st.booleans(), label="threads") else []
    stderr = io.StringIO()
    directory = tmp_path_factory.mktemp("fuzz")
    write_world(small_world, directory, **{name: raw})
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = main([*threads, *world_argv(command, directory, flags)])
        except SystemExit as exc:  # a usage error
            code = exc.code
    assert code in (0, 2, 3, 4)
    if code:
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "message"}
