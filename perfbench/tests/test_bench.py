"""Tests of the benchmark's own code.

Run with ``python3 -m pytest perfbench/tests`` from the root of a checkout.
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def span(id, start, end, parent=None, name="f"):
    return spans.Span(id, name, start, end, parent, job=0)


def test_self_time_of_a_nested_span_tree():
    tree = [
        span(0, 0.0, 10.0),             # root: children cover [1, 4] and [5, 9]
        span(1, 1.0, 4.0, parent=0),    # its child covers [2, 3]
        span(2, 2.0, 3.0, parent=1),
        span(3, 5.0, 9.0, parent=0),    # children overlap: [5, 7] and [6, 8]
        span(4, 5.0, 7.0, parent=3),
        span(5, 6.0, 8.0, parent=3),
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 2.0, 5: 2.0})


def test_layer_values_sum_spans_and_derive_rates():
    tree = [span(0, 0.0, 2.0, name="io.load_matrix"), span(1, 3.0, 5.0, name="io.load_matrix")]
    tree[0].counters = {"mb": 3.0}
    tree[1].counters = {"mb": 5.0}
    totals = spans.totals(tree)
    assert run.layer_value(totals, "io.load_matrix.calls") == 2
    assert run.layer_value(totals, "io.load_matrix.s") == pytest.approx(4.0)
    assert run.layer_value(totals, "io.load_matrix.mb_per_s") == pytest.approx(2.0)
    assert run.layer_value(totals, "io.save_matrix.s") == 0.0


def _outputs():
    rng = np.random.default_rng(0)
    scores = rng.standard_normal((4, 6))
    candidates = ["u00", "u01", "u02", "u03"]
    predicted = [candidates[j] for j in np.argmax(scores, axis=0)]
    prototypes = rng.standard_normal((5, 4))
    return predicted, candidates, scores, prototypes


def test_result_check_accepts_identical_outputs():
    predicted, candidates, scores, prototypes = _outputs()
    a, problems = check.digest({"t": (predicted, candidates, scores)}, prototypes, {"cm": 0.5})
    b, _ = check.digest({"t": (list(predicted), candidates, scores.copy())},
                        prototypes.copy(), {"cm": 0.5})
    assert problems == [] and check.compare(a, b) == []


def test_result_check_flags_a_one_label_change():
    predicted, candidates, scores, prototypes = _outputs()
    want, _ = check.digest({"t": (predicted, candidates, scores)}, prototypes, {})
    changed = list(predicted)
    changed[3] = next(c for c in candidates if c != changed[3])
    got, problems = check.digest({"t": (changed, candidates, scores)}, prototypes, {})
    assert any("predicted classes" in p for p in check.compare(got, want))
    assert problems == ["t: 1 prediction(s) are not the top score"]


def test_result_check_flags_a_one_ulp_prototype_change():
    predicted, candidates, scores, prototypes = _outputs()
    want, _ = check.digest({"t": (predicted, candidates, scores)}, prototypes, {})
    nudged = prototypes.copy()
    nudged[2, 1] = np.nextafter(nudged[2, 1], np.inf)
    got, _ = check.digest({"t": (predicted, candidates, scores)}, nudged, {})
    assert check.compare(got, want) == ["final unseen prototype bytes differ"]


def test_result_check_flags_a_score_change_beyond_tolerance():
    predicted, candidates, scores, prototypes = _outputs()
    want, _ = check.digest({"t": (predicted, candidates, scores)}, prototypes, {"cm": 0.5})
    moved = scores.copy()
    moved[1, 2] *= 1 + 1e-6
    got, _ = check.digest({"t": (predicted, candidates, moved)}, prototypes, {"cm": 0.5 + 1e-6})
    problems = check.compare(got, want)
    assert "score table 't' differs" in problems
    assert any(p.startswith("cm:") for p in problems)


def _tiny_dataset():
    from dmap.synth import SynthConfig, generate

    return generate(SynthConfig(d=12, p=6, k=5, l=3, n_per_class=4, noise_sigma=0.1, seed=3))


def test_traced_job_records_nested_spans_and_restores_every_wrapper():
    import dmap
    import dmap.linmap
    import dmap.model

    originals = spans.public_functions()
    held = {(name, attr): value for name, module in sys.modules.items()
            if name.startswith("dmap") and module is not None
            for attr, value in vars(module).items()
            if inspect.isfunction(value) and value in originals}
    assert ("dmap.model", "solve_ridge_map") in held

    recorder = spans.SpanRecorder()
    config = dmap.model.DmapConfig(m=2, gamma=1.0, eta=1.0, train_max_iter=1)
    with spans.instrument(recorder):
        for name, attr in held:
            assert getattr(sys.modules[name], attr) not in originals
        dmap.model.train(_tiny_dataset().train, config)

    names = [s.name for s in recorder.spans]
    train = next(s for s in recorder.spans if s.name == "model.train")
    assert names.count("linmap.solve_ridge_map") == 3  # via dmap.model's own reference
    assert names.count("model.knn_prototype") == 2 * 5
    assert all(s.parent == train.id for s in recorder.spans
               if s.name == "linmap.solve_ridge_map")
    assert all(s.counters["gflop"] > 0 for s in recorder.spans
               if s.name == "linmap.solve_ridge_map")

    now = {(name, attr): value for name, module in sys.modules.items()
           if name.startswith("dmap") and module is not None
           for attr, value in vars(module).items() if (name, attr) in held}
    assert now == held


def test_wrappers_are_removed_when_the_traced_job_raises():
    import dmap.model

    original = dmap.model.train
    with pytest.raises(RuntimeError):
        with spans.instrument(spans.SpanRecorder()):
            assert dmap.model.train is not original
            raise RuntimeError("job failed")
    assert dmap.model.train is original


def test_benchmark_json_matches_the_metrics_the_benchmark_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.metric_unit(name) for name in run.PER_LAYER}
    assert spec["paths"] == [HERE.name]


def test_default_and_held_out_seeds_have_references():
    refs = json.loads(run.REFERENCES.read_text(encoding="utf-8"))
    for name in workloads.WORKLOADS:
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
            assert str(seed) in refs["workloads"][name]


def test_repeat_runs_at_least_the_minimum_number_of_cycles():
    indices = []
    records = workloads.repeat(lambda i: indices.append(i) or {"index": i}, 0.0)
    assert indices == list(range(workloads.MIN_JOBS))
    assert [r["index"] for r in records] == indices


def test_a_cycle_that_raises_is_a_failed_record_and_leaves_no_files(tmp_path, monkeypatch):
    def set_up(workload, seed, data_dir):
        data_dir.mkdir()
        raise RuntimeError("set-up failed")

    monkeypatch.setattr(workloads, "set_up", set_up)
    record = workloads.cycle("cub-cli", 1, tmp_path)
    assert record["setup_s"] is None and record["digest"] is None
    assert "set-up failed" in record["problems"][0]
    assert list(tmp_path.iterdir()) == []


def test_run_length_comes_from_benchmark_json_and_a_failed_job_fails_the_run(
        monkeypatch, capsys):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seen = []

    def run_workload(name, seed, seconds, trace, env):
        seen.append(seconds)
        return [{"problems": []}, {"problems": ["differs"]}], {"wall_s": 1.5}

    monkeypatch.setattr(run, "run_workload", run_workload)
    monkeypatch.setattr(run, "environment", lambda seed, threads: {})
    assert run.main(["--workload", "awa-api"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert seen == [spec["run_seconds"]]
    assert result == {"correct": False, "attempted": 2, "failed": 1,
                      "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}}
