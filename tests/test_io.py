"""Tests for the on-disk formats.

The text matrix format promises bit-exact round trips for finite doubles
(including signed zero and denormals); the JSON and CSV writers promise
deterministic bytes.  Both promises are checked literally.
"""

import gzip
import io
import json
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dmap.consistency import DefectReport, preinspect
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
from oracles import prediction_to_dict


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

    def test_gzip_writes_are_deterministic(self, tmp_path):
        # The gzip header has fields for the file name and the write time.
        a, b = tmp_path / "a.dmx.gz", tmp_path / "other_name.dmx.gz"
        save_matrix(np.eye(2), a)
        time.sleep(1.1)
        save_matrix(np.eye(2), b)
        assert a.read_bytes() == b.read_bytes()

    def test_integer_data_is_written_as_doubles(self, tmp_path):
        path = tmp_path / "m.dmx"
        save_matrix(SimpleNamespace(data=np.array([[0, 1]])), path)
        assert path.read_text() == "dmap-matrix 1 1 2\n0.0 1.0\n"

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


def per_token_rows(body, cols):
    """The reference row parse: one ``float()`` per token, row by row."""
    out = np.empty((len(body), cols))
    for i, line in enumerate(body):
        tokens = line.split()
        if len(tokens) != cols:
            raise ShapeMismatch(
                f"row {i + 1} has {len(tokens)} values, expected {cols} (line {i + 2})"
            )
        if "_" in line or not line.isascii():
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


TOKENS = st.one_of(
    st.floats(width=64).map(repr),  # also nan, inf, -0.0
    st.floats(min_value=-2.3e-308, max_value=2.3e-308).map(repr),  # subnormals
    st.sampled_from([
        ".5", "5.", "+1", "-0.0", "5e-324", "1e400", "-1e400", "1e-400", "inf", "-Infinity",
        "nan", "0x1p3", "1e", "1,5", "1_0", "e5", ".", "-", "0.1f",
    ]),
)


SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t "])
EDGES = st.sampled_from(["", " ", "\t"])


@st.composite
def matrix_bodies(draw):
    """A declared column count and body lines, mostly of that many tokens.

    At most 6 rows of at most 4 columns: the header then never declares
    more values than the file has characters, a check made before any
    row is read."""
    cols = draw(st.integers(1, 4))
    body = []
    for _ in range(draw(st.integers(1, 6))):
        width = draw(st.sampled_from([cols] * 6 + [0, 1, cols + 1]))
        tokens = draw(st.lists(TOKENS, min_size=width, max_size=width))
        line = draw(EDGES)
        for j, token in enumerate(tokens):
            line += (draw(SEPARATORS) if j else "") + token
        body.append(line + draw(EDGES))
    return cols, body


def parse_outcome(parse):
    """The parsed bits, or the error's type, message, line and column."""
    try:
        return parse().view(np.uint64).tolist()
    except (ParseError, ShapeMismatch) as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


@given(matrix_bodies())
def test_row_conversion_matches_per_token_parse(cols_and_body):
    import tempfile

    cols, body = cols_and_body
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.dmx"
        header = f"dmap-matrix 1 {len(body)} {cols}\n"
        path.write_text(header + "".join(line + "\n" for line in body), encoding="ascii")
        assert parse_outcome(lambda: load_matrix(path)) == parse_outcome(
            lambda: per_token_rows(body, cols))



AWKWARD_DOUBLES = np.array([[-0.0, 5e-324, 2.2250738585072014e-308, 1e-05],
                            [1e+16, 1.7976931348623157e+308, 0.1, -1 / 3]])


def npy_bytes(arr, **kwargs) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, arr, **kwargs)
    return buf.getvalue()


def npy_with_header(header: str, data: bytes = b"") -> bytes:
    """A version 1.0 ``.npy`` file with the given header text."""
    raw = header.encode("latin1")
    return b"\x93NUMPY\x01\x00" + len(raw).to_bytes(2, "little") + raw + data


class TestNpyMatrices:
    def test_round_trip_is_bitwise(self, tmp_path):
        path = tmp_path / "m.npy"
        save_matrix(AWKWARD_DOUBLES, path)
        loaded = load_matrix(path)
        assert loaded.dtype == np.float64 and loaded.flags.c_contiguous
        assert np.array_equal(loaded.view(np.uint64), AWKWARD_DOUBLES.view(np.uint64))

    def test_writes_are_c_ordered_and_deterministic(self, tmp_path):
        a, b = tmp_path / "a.npy", tmp_path / "b.npy"
        save_matrix(AWKWARD_DOUBLES, a)
        save_matrix(np.asfortranarray(AWKWARD_DOUBLES), b)
        assert a.read_bytes() == b.read_bytes() == npy_bytes(AWKWARD_DOUBLES)

    @pytest.mark.parametrize("dtype", ["<f4", ">f4", "<f8", ">f8"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_float32_and_float64_convert_exactly(self, tmp_path, dtype, order):
        arr = np.array([[0.1, -2.5, 3e38], [-0.0, 1e-40, 7.0]]).astype(dtype)
        path = tmp_path / "m.npy"
        path.write_bytes(npy_bytes(np.asarray(arr, order=order)))
        loaded = load_matrix(path)
        assert loaded.dtype == np.float64 and loaded.flags.c_contiguous
        assert np.array_equal(loaded.view(np.uint64), arr.astype(np.float64).view(np.uint64))

    @pytest.mark.parametrize("raw", [
        npy_bytes(np.array([[1, 2]], dtype=object), allow_pickle=True),
        npy_bytes(np.array([[1, 2]])),
        npy_bytes(np.array([[1, 2]], dtype=np.float16)),
        npy_bytes(np.array([[1, 2]], dtype=np.longdouble)),
        npy_bytes(np.array([[1, 2]], dtype=complex)),
        npy_bytes(np.zeros((1, 2), dtype=[("a", "<f8")])),
        npy_bytes(np.ones(3)),
        npy_bytes(np.ones((2, 2, 2))),
        npy_bytes(np.ones(())),
        npy_bytes(np.ones((3, 0))),
        npy_bytes(np.array([[1.0, np.nan]])),
        npy_bytes(np.array([[np.inf], [1.0]], dtype=np.float32)),
        npy_bytes(np.ones((2, 2)))[:-1],
        npy_bytes(np.ones((2, 2))) + b"\0",
        npy_bytes(np.ones((2, 2)))[:20],
        npy_bytes(np.ones((2, 2))).replace(b"(2, 2)", b"(2, 9)"),
        npy_with_header("{'descr': '<f8', 'fortran_order': False, 'shape': (10**9, 10**9)}"),
        npy_with_header("{'descr': '<f8', 'fortran_order': False, 'shape': (999999999, 9)}"),
        # NumPy's header parser lets these escape as TypeError, IndexError,
        # tokenize.TokenError and MemoryError, and warns on a Python 2 header.
        npy_with_header("{[]: 1}"),
        npy_with_header("{'descr': ('<f8',), 'fortran_order': False, 'shape': (1, 1)}",
                        b"\0" * 8),
        npy_with_header("{'descr': '<f8\n"),
        npy_with_header("-" * 9000 + "1"),
        npy_with_header("{'descr': '<f8', 'fortran_order': False, 'shape': (1L, 1L)}",
                        b"\0" * 8),
        npy_bytes(np.ones((2, 2))).replace(b"\x01\x00", b"\x03\x00", 1),
        b"dmap-matrix 1 1 1\n1.0\n",
        b"",
    ], ids=["pickled", "int64", "float16", "longdouble", "complex", "structured", "1-D",
            "3-D", "0-D", "empty", "nan", "inf", "truncated", "trailing-byte", "header-cut",
            "shape-beyond-file", "shape-expression", "huge-shape", "unhashable-key",
            "short-descr", "unterminated-header", "deep-header", "python2-header", "version-3",
            "text", "no-bytes"])
    def test_malformed_files_are_parse_errors(self, tmp_path, raw):
        path = tmp_path / "m.npy"
        path.write_bytes(raw)
        with pytest.raises(ParseError, match="m.npy"):
            load_matrix(path)

    def test_gzip_wrapped_npy_refused(self, tmp_path):
        path = tmp_path / "m.npy.gz"
        path.write_bytes(gzip.compress(npy_bytes(np.ones((2, 2)))))
        with pytest.raises(ParseError, match="m.npy.gz"):
            load_matrix(path)
        with pytest.raises(ParseError, match="m.npy.gz"):
            save_matrix(np.ones((2, 2)), path)

    @pytest.mark.parametrize("name", ["m.npy", "m.dmx"])
    def test_save_refuses_what_load_refuses(self, tmp_path, name):
        for bad in (np.zeros((0, 3)), np.zeros((2, 2, 2)), np.array([[np.nan]])):
            with pytest.raises(ValidationError):
                save_matrix(bad, tmp_path / name)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                    min_size=1, max_size=12), st.integers(1, 3))
    def test_round_trip_property(self, values, rows):
        import tempfile

        arr = np.array(values * rows).reshape(rows, len(values))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.npy"
            save_matrix(arr, path)
            assert np.array_equal(load_matrix(path).view(np.uint64), arr.view(np.uint64))


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

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_json_writers_refuse_non_finite_numbers(self, tmp_path, bad):
        # json.dumps would write Infinity or NaN, which are not JSON.
        report = DefectReport(np.zeros((1, 1)), (), bad, ("u0",))
        path = tmp_path / "defects.json"
        with pytest.raises(ValidationError, match="finite"):
            save_defect_report(report, path)
        assert not path.exists()

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



SCORES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308),  # subnormals
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-05, 1e+16, 1.7976931348623157e+308,
                     -1.7976931348623157e+308, 0.1, 1 / 3]),
)
CLASS_IDS = st.one_of(st.integers(), st.text(max_size=6))


@st.composite
def predictions(draw):
    """A prediction with 0-4 candidates, 0-5 instances and mixed ids."""
    c, n = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    candidates = draw(st.lists(CLASS_IDS, min_size=c, max_size=c, unique=True))
    return Prediction(
        instance_ids=draw(st.lists(CLASS_IDS, min_size=n, max_size=n)),
        predicted_class=draw(st.lists(st.sampled_from(candidates), min_size=n, max_size=n))
        if candidates else draw(st.lists(CLASS_IDS, min_size=n, max_size=n)),
        score_matrix=np.array(draw(st.lists(st.lists(SCORES, min_size=n, max_size=n),
                                            min_size=c, max_size=c)),
                              dtype=np.float64).reshape(c, n),
        candidate_ids=candidates,
    )


class TestPredictionWriter:
    """``save_prediction`` writes its table without the ``json`` encoder; the
    reference is ``json.dumps(..., sort_keys=True, indent=2)``."""

    @staticmethod
    def reference(prediction, mode) -> bytes:
        obj = prediction_to_dict(prediction, mode)
        return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")

    @given(predictions(), st.sampled_from(["czsr", "gzsr", "", "\u00e9\u4e2d"]))
    def test_bytes_match_json_dumps(self, prediction, mode):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pred.json"
            save_prediction(prediction, mode, path)
            assert path.read_bytes() == self.reference(prediction, mode)

    @pytest.mark.parametrize("scores, candidates, instances", [
        ([[-0.0]], ["a"], ["x"]),
        ([[5e-324, 1e-05, 1e+16, 1.7976931348623157e+308, 2.5e-310]], [7], [0, 1, 2, "\u00e9", "x"]),
        ([[0.5], [-1.0], [1e300]], ["a", 2, "\u4e2d"], ["only"]),
    ], ids=["1x1", "one-candidate", "one-instance"])
    def test_small_tables(self, tmp_path, scores, candidates, instances):
        prediction = Prediction(instances, [candidates[0]] * len(instances), np.array(scores),
                                candidates)
        save_prediction(prediction, "czsr", tmp_path / "pred.json")
        assert (tmp_path / "pred.json").read_bytes() == self.reference(prediction, "czsr")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_refused(self, tmp_path, bad):
        prediction = Prediction(["x", "y"], ["a", "a"], np.array([[1.0, bad]]), ["a"])
        with pytest.raises(ValidationError, match="finite"):
            save_prediction(prediction, "czsr", tmp_path / "pred.json")
        assert not (tmp_path / "pred.json").exists()



#: A ``dmap-model 1`` directory with its inputs and predictions, all written
#: by the text-format writer before ``dmap-model 2``.  Its arrays are dyadic
#: fractions, so predictions are exact on any BLAS, except ``k_tilde_s``
#: (not read at predict time), which holds doubles whose text is awkward.
V1_FIXTURE = Path(__file__).parent / "data" / "model_v1"
V1_MODEL = {
    "f_s": np.array([[1, 0, 2], [0, 1, -1], [2, -1, 0], [1, 1, 1]]) / 2,
    "f_tilde": np.array([[1.0, 0, 0, 1], [0, 2, 1, 0], [1, 0, 1, 0], [0, 1, 0, 2]]),
    "k_tilde_s": np.array([[-0.0, 5e-324, 0.1],
                           [2.2250738585072014e-308, 1.7976931348623157e+308, 1 / 3],
                           [1e-05, 1e+16, -2.5e-310], [0.5, -1.5, 123456789.125]]),
    "feature_mean": np.array([0.5, -0.25, 1.0, 0.0]),
}

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

    def test_v2_round_trip_is_bitwise(self, tmp_path):
        synth_cfg, run_cfg = exact_recovery_setup(seed=7)
        model = train(generate(synth_cfg).train, replace(run_cfg, center=True))
        save_model(model, tmp_path / "model")
        assert sorted(p.name for p in (tmp_path / "model").iterdir()) == [
            "f_s.npy", "f_tilde.npy", "feature_mean.npy", "k_tilde_s.npy", "model.json"]
        assert json.loads((tmp_path / "model" / "model.json").read_text())["schema"] == \
            "dmap-model 2"
        loaded = load_model(tmp_path / "model")
        for got, want in ((loaded.f_s, model.f_s), (loaded.f_tilde, model.f_tilde),
                          (loaded.k_tilde_s.data, model.k_tilde_s.data),
                          (loaded.feature_mean, model.feature_mean)):
            assert got.dtype == np.float64 and got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert loaded.k_tilde_s.class_ids == model.k_tilde_s.class_ids
        assert loaded.config == model.config

    def test_v1_directory_loads_bitwise(self):
        # Written by the dmap-model 1 writer (text matrices); see V1_MODEL.
        loaded = load_model(V1_FIXTURE / "model")
        for got, want in ((loaded.f_s, V1_MODEL["f_s"]), (loaded.f_tilde, V1_MODEL["f_tilde"]),
                          (loaded.k_tilde_s.data, V1_MODEL["k_tilde_s"]),
                          (loaded.feature_mean, V1_MODEL["feature_mean"])):
            assert got.dtype == np.float64 and got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert loaded.k_tilde_s.class_ids == ("s0", "s1", "s2")
        assert loaded.config == DmapConfig(m=2, test_max_iter=2, center=True)
        assert loaded.train_iterations_run == 1

    def test_v1_directory_resaves_as_v2_with_the_same_arrays(self, tmp_path):
        v1 = load_model(V1_FIXTURE / "model")
        save_model(v1, tmp_path / "model")
        v2 = load_model(tmp_path / "model")
        for name in ("f_s", "f_tilde", "feature_mean"):
            assert getattr(v2, name).tobytes() == getattr(v1, name).tobytes()
        assert v2.k_tilde_s.data.tobytes() == v1.k_tilde_s.data.tobytes()
        assert v2.config == v1.config

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

    def test_matrices_may_be_npy(self, tmp_path):
        synth_cfg, _ = exact_recovery_setup(seed=9)
        save_dataset(generate(synth_cfg), tmp_path / "data")
        want = load_dataset(tmp_path / "data")
        for stem in ("train_features", "test_features", "embeddings"):
            text = tmp_path / "data" / f"{stem}.dmx"
            save_matrix(load_matrix(text), text.with_suffix(".npy"))
            with pytest.raises(ParseError, match=f"both {stem}.dmx and {stem}.npy"):
                load_dataset(tmp_path / "data")
            text.unlink()
        got = load_dataset(tmp_path / "data")
        assert got[0].features.data.tobytes() == want[0].features.data.tobytes()
        assert got[1].data.tobytes() == want[1].data.tobytes()
        assert got[3].data.tobytes() == want[3].data.tobytes()
        assert got[0].labels == want[0].labels and got[2] == want[2]
