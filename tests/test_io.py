"""Tests for the on-disk formats.

The text matrix format promises bit-exact round trips for finite doubles
(including signed zero and denormals); the JSON and CSV writers promise
deterministic bytes.  Both promises are checked literally.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dmap.consistency import preinspect
from dmap.core import ClassSplit, FeatureMatrix
from dmap.errors import ParseError, ShapeMismatch, ValidationError
from dmap.evaluation import evaluate
from dmap.io import (
    SUMMARY_HEADER,
    load_dataset,
    load_labels,
    load_matrix,
    load_model,
    load_prediction,
    load_split,
    run_config_fields,
    run_config_to_dict,
    save_confusion_csv,
    save_dataset,
    save_defect_report,
    save_eval_report,
    save_labels,
    save_matrix,
    save_model,
    save_prediction,
    save_split,
    write_summary_csv,
)
from dmap.model import DmapConfig, Prediction, infer_inductive, train
from dmap.synth import defect_setup, exact_recovery_setup, generate


class TestMatrixFormat:
    def test_awkward_doubles_round_trip_bitwise(self, tmp_path):
        values = np.array([
            [0.0, -0.0, 1.0, -1.0],
            [np.pi, -np.e, 2.0 / 3.0, 0.1],
            [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
            [1.5e-300, -7.1e250, 123456789.123456789, -1e-16],
        ])
        path = tmp_path / "m.dmx"
        save_matrix(values, path)
        loaded = load_matrix(path)
        assert loaded.shape == values.shape
        # bitwise equality, which also distinguishes 0.0 from -0.0
        assert np.array_equal(
            loaded.view(np.uint64), values.view(np.uint64)
        )

    def test_thousand_random_doubles_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(77)
        values = rng.standard_normal((25, 40)) * np.exp(
            rng.uniform(-300, 300, size=(25, 40))
        )
        path = tmp_path / "big.dmx"
        save_matrix(values, path)
        assert np.array_equal(
            load_matrix(path).view(np.uint64), values.view(np.uint64)
        )

    def test_one_by_one_matrix_is_two_lines(self, tmp_path):
        path = tmp_path / "tiny.dmx"
        save_matrix(np.array([[0.1]]), path)
        assert path.read_text() == "dmap-matrix 1 1 1\n0.1\n"

    def test_writes_are_deterministic(self, tmp_path):
        values = np.random.default_rng(3).normal(size=(4, 5))
        a, b = tmp_path / "a.dmx", tmp_path / "b.dmx"
        save_matrix(values, a)
        save_matrix(values, b)
        assert a.read_bytes() == b.read_bytes()

    def test_gzip_round_trip(self, tmp_path):
        values = np.random.default_rng(8).normal(size=(6, 3))
        path = tmp_path / "m.dmx.gz"
        save_matrix(values, path)
        assert path.read_bytes()[:2] == b"\x1f\x8b"  # gzip magic
        assert np.array_equal(load_matrix(path), values)

    def test_accepts_wrapper_objects(self, tmp_path):
        fm = FeatureMatrix(np.arange(6.0).reshape(2, 3))
        path = tmp_path / "m.dmx"
        save_matrix(fm, path)
        assert np.array_equal(load_matrix(path), fm.data)

    def test_vector_is_promoted_to_one_row(self, tmp_path):
        path = tmp_path / "v.dmx"
        save_matrix(np.array([1.0, 2.0, 3.0]), path)
        assert load_matrix(path).shape == (1, 3)

    def test_rejects_non_finite_on_save(self, tmp_path):
        with pytest.raises(ValidationError):
            save_matrix(np.array([[np.inf]]), tmp_path / "m.dmx")
        with pytest.raises(ValidationError):
            save_matrix(np.array([[np.nan]]), tmp_path / "m.dmx")

    def test_rejects_higher_rank_arrays(self, tmp_path):
        with pytest.raises(ValidationError):
            save_matrix(np.zeros((2, 2, 2)), tmp_path / "m.dmx")

    def test_missing_file_is_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            load_matrix(tmp_path / "absent.dmx")

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "m.dmx"
        path.write_text("other-format 1 1 1\n0.0\n")
        with pytest.raises(ParseError) as exc:
            load_matrix(path)
        assert exc.value.line == 1

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "m.dmx"
        path.write_text("dmap-matrix 9 1 1\n0.0\n")
        with pytest.raises(ParseError):
            load_matrix(path)

    def test_non_integer_shape_rejected(self, tmp_path):
        path = tmp_path / "m.dmx"
        path.write_text("dmap-matrix 1 two 2\n0.0 0.0\n")
        with pytest.raises(ParseError):
            load_matrix(path)

    @pytest.mark.parametrize("rows", ["1_0", "\u0661\u0660", "+10"])
    def test_header_shape_must_be_ascii_decimal_digits(self, tmp_path, rows):
        # int() reads each of these as 10, the body's row count.
        path = tmp_path / "m.dmx"
        path.write_text(f"dmap-matrix 1 {rows} 1\n" + "0.5\n" * 10, encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_matrix(path)
        assert exc.value.line == 1

    def test_declared_rows_must_match_body(self, tmp_path):
        path = tmp_path / "m.dmx"
        path.write_text(
            "dmap-matrix 1 2 2\n1.0 2.0\n3.0 4.0\n5.0 6.0\n"
        )
        with pytest.raises(ShapeMismatch):
            load_matrix(path)

    def test_declared_cols_must_match_rows(self, tmp_path):
        path = tmp_path / "m.dmx"
        path.write_text("dmap-matrix 1 2 2\n1.0 2.0\n3.0\n")
        with pytest.raises(ShapeMismatch):
            load_matrix(path)

    def test_bad_float_reports_line_and_column(self, tmp_path):
        path = tmp_path / "m.dmx"
        path.write_text("dmap-matrix 1 2 2\n1.0 2.0\n3.0 oops\n")
        with pytest.raises(ParseError) as exc:
            load_matrix(path)
        assert exc.value.line == 3
        assert exc.value.column == 2

    @pytest.mark.parametrize("token", ["1_0", "\u0661"])
    def test_python_only_float_syntax_rejected_with_location(self, tmp_path, token):
        # float() reads "1_0" as 10.0 and Arabic-Indic digits as decimals.
        path = tmp_path / "m.dmx"
        path.write_text(f"dmap-matrix 1 2 2\n1.0 2.0\n3.0 {token}\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_matrix(path)
        assert exc.value.line == 3
        assert exc.value.column == 2

    def test_non_finite_token_rejected_with_location(self, tmp_path):
        path = tmp_path / "m.dmx"
        path.write_text("dmap-matrix 1 1 2\ninf 1.0\n")
        with pytest.raises(ParseError) as exc:
            load_matrix(path)
        assert exc.value.line == 2
        assert exc.value.column == 1

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "m.dmx"
        path.write_text("")
        with pytest.raises(ParseError):
            load_matrix(path)

    @given(st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=1, max_size=30,
    ))
    def test_round_trip_property(self, values):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.dmx"
            arr = np.array([values])
            save_matrix(arr, path)
            assert np.array_equal(
                load_matrix(path).view(np.uint64), arr.view(np.uint64)
            )


class TestSplitAndLabels:
    def test_split_round_trip(self, tmp_path):
        split = ClassSplit(seen=("a", "b"), unseen=("c",))
        path = tmp_path / "split.json"
        save_split(split, path)
        assert load_split(path) == split

    def test_split_requires_exact_keys(self, tmp_path):
        path = tmp_path / "split.json"
        path.write_text(json.dumps({"seen": ["a"], "test": ["b"]}))
        with pytest.raises(ParseError):
            load_split(path)

    def test_labels_round_trip(self, tmp_path):
        labels = ("a", "a", "b", "c")
        path = tmp_path / "labels.json"
        save_labels(labels, path)
        assert load_labels(path) == labels

    def test_labels_must_be_an_array(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"labels": ["a"]}))
        with pytest.raises(ParseError):
            load_labels(path)

    def test_integer_labels_accepted(self, tmp_path):
        path = tmp_path / "labels.json"
        save_labels((3, 1, 3), path)
        assert load_labels(path) == (3, 1, 3)

    @pytest.mark.parametrize("entry", [["a"], {"a": 1}, True, None, 1.5])
    def test_label_and_split_entries_must_be_strings_or_integers(self, tmp_path, entry):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(["a", entry]))
        with pytest.raises(ParseError, match="entry 1"):
            load_labels(path)
        path = tmp_path / "split.json"
        path.write_text(json.dumps({"seen": ["a", entry], "unseen": ["b"]}))
        with pytest.raises(ParseError, match="entry 1"):
            load_split(path)

    def test_split_sides_must_be_arrays(self, tmp_path):
        path = tmp_path / "split.json"
        path.write_text(json.dumps({"seen": "ab", "unseen": ["c"]}))
        with pytest.raises(ParseError):
            load_split(path)

    def test_invalid_json_reports_location(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text('["a",')
        with pytest.raises(ParseError) as exc:
            load_labels(path)
        assert exc.value.line is not None


class TestRunConfig:
    def test_round_trip_preserves_everything(self, tmp_path):
        config = DmapConfig(m=7, lam=0.25, gamma=2.0, eta=3.0,
                            train_max_iter=5, test_max_iter=4,
                            convergence_tol=1e-6, mode="gzsr",
                            normalize=True, center=True)
        obj = run_config_to_dict(config)
        assert obj["lambda"] == 0.25 and obj["epsilon"] is None and obj["seed"] == 0
        path = tmp_path / "run.json"
        path.write_text(json.dumps(obj))
        loaded = DmapConfig(**run_config_fields(json.loads(path.read_text())))
        assert loaded == config

    def test_lambda_key_maps_to_lam(self):
        assert run_config_fields({"lambda": 0.5}) == {"lam": 0.5}

    def test_partial_configs_use_defaults(self):
        values = run_config_fields({"m": 3, "epsilon": 1e-9, "seed": 42})
        assert values == {"m": 3}
        config = DmapConfig(**values)
        assert config.m == 3
        assert config.gamma == DmapConfig().gamma

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError):
            run_config_fields({"lamda": 0.5})

    def test_non_object_rejected(self):
        with pytest.raises(ValidationError):
            run_config_fields([1, 2, 3])

    def test_bad_values_propagate_validation(self):
        with pytest.raises(ValidationError):
            DmapConfig(**run_config_fields({"m": 0}))


class TestReports:
    def make_eval_report(self):
        scores = np.array([[2.0, 0.0, 1.0], [1.0, 3.0, 0.0]])
        pred = Prediction(
            instance_ids=("x0", "x1", "x2"),
            predicted_class=("a", "b", "a"),
            score_matrix=scores,
            candidate_ids=("a", "b"),
        )
        return evaluate(pred, ("a", "b", "b"), ks=(1, 2))

    def test_eval_report_json_contents(self, tmp_path):
        report = self.make_eval_report()
        path = tmp_path / "eval.json"
        save_eval_report(report, path)
        obj = json.loads(path.read_text())
        assert obj["mode"] == "czsr"
        assert obj["mean_per_class_accuracy"] == report.mean_per_class_accuracy
        assert obj["candidates"] == ["a", "b"]
        assert obj["confusion"] == [[1, 0], [1, 1]]
        assert obj["top_k_accuracy"]["2"] == 1.0

    def test_confusion_csv_exact_bytes(self, tmp_path):
        report = self.make_eval_report()
        path = tmp_path / "confusion.csv"
        save_confusion_csv(report, path)
        assert path.read_text() == "true,a,b\na,1,0\nb,1,1\n"

    def test_defect_report_round_trips_structure(self, tmp_path):
        synth_cfg, _ = defect_setup(seed=1)
        ds = generate(synth_cfg)
        report = preinspect(
            ds.embeddings.subset(ds.split.seen),
            ds.embeddings.subset(ds.split.unseen),
            epsilon=1e-9,
        )
        path = tmp_path / "defects.json"
        save_defect_report(report, path)
        obj = json.loads(path.read_text())
        assert obj["epsilon"] == 1e-9
        assert obj["class_ids"] == list(ds.split.unseen)
        assert len(obj["pairwise_distances"]) == len(ds.split.unseen)
        flagged = {(f["class_i"], f["class_j"]) for f in obj["flagged_pairs"]}
        assert flagged == {(a, b) for a, b, _ in report.flagged_pairs}

    def test_prediction_round_trip(self, tmp_path):
        scores = np.random.default_rng(5).normal(size=(3, 4))
        pred = Prediction(
            instance_ids=("i0", "i1", "i2", "i3"),
            predicted_class=("a", "c", "b", "a"),
            score_matrix=scores,
            candidate_ids=("a", "b", "c"),
        )
        path = tmp_path / "pred.json"
        save_prediction(pred, "gzsr", path)
        loaded, mode = load_prediction(path)
        assert mode == "gzsr"
        assert loaded.instance_ids == pred.instance_ids
        assert loaded.predicted_class == pred.predicted_class
        assert loaded.candidate_ids == pred.candidate_ids
        assert np.array_equal(loaded.score_matrix, scores)

    def test_prediction_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "pred.json"
        path.write_text(json.dumps({"mode": "czsr"}))
        with pytest.raises(ParseError):
            load_prediction(path)

    def test_summary_csv_exact_bytes(self, tmp_path):
        rows = [
            {"iteration": 0, "mode": "czsr", "mean_per_class_acc": 0.5,
             "top1": 0.25, "cm": 0.75, "irc_gap": 0.1},
            {"iteration": 1, "mode": "czsr", "mean_per_class_acc": 1.0,
             "top1": 1.0, "cm": 0.75, "irc_gap": 0.1},
        ]
        path = tmp_path / "summary.csv"
        write_summary_csv(rows, path)
        assert path.read_text() == (
            "iteration,mode,mean_per_class_acc,top1,cm,irc_gap\n"
            "0,czsr,0.5,0.25,0.75,0.1\n"
            "1,czsr,1.0,1.0,0.75,0.1\n"
        )
        assert tuple(path.read_text().splitlines()[0].split(",")) == SUMMARY_HEADER


class TestModelDirectories:
    def test_model_round_trip_preserves_behaviour(self, tmp_path):
        synth_cfg, run_cfg = exact_recovery_setup(seed=6)
        ds = generate(synth_cfg)
        model = train(ds.train, run_cfg)
        save_model(model, tmp_path / "model")
        loaded = load_model(tmp_path / "model")

        assert np.array_equal(loaded.f_s, model.f_s)
        assert np.array_equal(loaded.f_tilde, model.f_tilde)
        assert not (loaded.f_s.flags.writeable or loaded.f_tilde.flags.writeable)
        assert np.array_equal(loaded.k_tilde_s.data, model.k_tilde_s.data)
        assert loaded.k_tilde_s.class_ids == model.k_tilde_s.class_ids
        assert loaded.config == model.config
        assert loaded.train_iterations_run == model.train_iterations_run
        assert loaded.feature_mean is None

        K_u = ds.embeddings.subset(ds.split.unseen)
        a = infer_inductive(model, ds.test_features, K_u)
        b = infer_inductive(loaded, ds.test_features, K_u)
        assert a.predicted_class == b.predicted_class
        assert np.array_equal(a.score_matrix, b.score_matrix)

    def test_model_round_trip_with_feature_mean(self, tmp_path):
        synth_cfg, run_cfg = exact_recovery_setup(seed=7)
        run_cfg = replace(run_cfg, center=True)
        ds = generate(synth_cfg)
        model = train(ds.train, run_cfg)
        save_model(model, tmp_path / "model")
        loaded = load_model(tmp_path / "model")
        assert loaded.feature_mean is not None
        assert np.array_equal(loaded.feature_mean, model.feature_mean)

    def test_non_model_directory_rejected(self, tmp_path):
        (tmp_path / "model.json").write_text(json.dumps({"schema": "other"}))
        with pytest.raises(ParseError):
            load_model(tmp_path)


class TestDatasetDirectories:
    def test_dataset_round_trip(self, tmp_path):
        synth_cfg, _ = exact_recovery_setup(seed=9)
        ds = generate(synth_cfg)
        save_dataset(ds, tmp_path / "data")
        train_ds, test_fm, test_labels, embeddings = load_dataset(tmp_path / "data")
        assert np.array_equal(train_ds.features.data, ds.train.features.data)
        assert train_ds.labels == ds.train.labels
        assert train_ds.split == ds.split
        assert np.array_equal(test_fm.data, ds.test_features.data)
        assert test_labels == ds.test_labels
        assert np.array_equal(embeddings.data, ds.embeddings.data)
        assert embeddings.class_ids == ds.embeddings.class_ids

    def test_embedding_column_count_must_match_split(self, tmp_path):
        synth_cfg, _ = exact_recovery_setup(seed=9)
        ds = generate(synth_cfg)
        save_dataset(ds, tmp_path / "data")
        # drop one class from the split file only
        save_split(
            ClassSplit(seen=ds.split.seen[:-1], unseen=ds.split.unseen),
            tmp_path / "data" / "split.json",
        )
        with pytest.raises(ShapeMismatch):
            load_dataset(tmp_path / "data")
