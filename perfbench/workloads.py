"""The benchmark's workloads: shapes, set-up, and one job of each.

Every workload is a closed loop with one client that repeats a cycle: one
set-up, then one job on its inputs; the next cycle starts when the previous
one has finished.  Inputs come only from ``dmap.synth`` with the workload
seed, so no download is needed.

* ``cub-cli``: the CUB-like world through the documented CLI flow.  The
  only workload that parses and writes files; kNN refinement runs 750
  per-class searches.
* ``awa-api``: the AwA-like world through the Python API.  High feature
  dimension, few classes, many instances: the ridge solves and the
  d-dimensional kNN search do most of the work, and ``io`` does nothing.
* ``many-gzsr``: many classes with few instances each, in generalised
  mode.  The consistency diagnostics (per-column factorisations, one
  ``lstsq`` per unseen class) do most of the work, and kNN and scoring
  run with many candidates and few instances each.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from check import digest

#: The ``dmap`` sources the benchmark runs.
SRC = Path(__file__).resolve().parent.parent / "src"

#: Transductive rounds of every job.
TEST_ITERATIONS = 3

#: A run has at least this many set-up + job cycles, however long they take.
MIN_JOBS = 4


@dataclass(frozen=True)
class Workload:
    shape: dict
    uses_files: bool


#: ``SynthConfig`` shapes.  The class counts, the code branch each ridge
#: solve takes (``d < n``; ``p > k`` except in many-gzsr) and the job
#: definitions follow the full-size worlds; ``d``, ``p`` and
#: ``n_per_class`` are scaled so that one job takes a few seconds.
WORKLOADS = {
    "cub-cli": Workload(dict(d=256, p=160, k=150, l=50, n_per_class=10,
                             noise_sigma=0.05, irc_distortion=0.2), uses_files=True),
    "awa-api": Workload(dict(d=768, p=85, k=40, l=10, n_per_class=40,
                             noise_sigma=0.05, irc_distortion=0.2), uses_files=False),
    "many-gzsr": Workload(dict(d=160, p=150, k=300, l=75, n_per_class=3,
                               noise_sigma=0.05, irc_distortion=0.2), uses_files=False),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def set_up(workload: Workload, seed: int, data_dir: Path) -> tuple[float, object]:
    """One timed set-up: generate the world and, for the CLI, write its files.

    Returns (seconds, dataset).  Writing is the work of ``dmap synth``.
    """
    from dmap import io as dio
    from dmap import synth

    start = time.perf_counter()
    ds = synth.generate(synth.SynthConfig(**workload.shape, seed=seed))
    if workload.uses_files:
        dio.save_dataset(ds, data_dir)
    return time.perf_counter() - start, ds


def run_child(args: list[str], stderr_path: Path) -> tuple[float, float, int, bytes]:
    """Run ``python ARGS`` with ``src`` on the path and wait for it.

    Returns (wall seconds, peak RSS in MB from ``wait4``, exit code, stdout).
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                                stderr=err, env=env)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode, out


def _untraced(phase: str):
    return contextlib.nullcontext()


def cycle(name: str, seed: int, workdir: Path, *, in_process: bool = False,
          trace=_untraced) -> dict:
    """One set-up + job cycle of workload NAME; returns its record.

    The record holds ``setup_s``, ``wall_s``, ``rss_mb`` (of the ``dmap``
    subprocess, for the CLI run out of process), the outputs' ``digest``
    and the ``problems`` found.  A non-zero exit or an exception is a
    problem, not an error.  ``trace(phase)`` gives the context manager
    around the ``"setup"`` and the ``"job"`` phase.  With ``in_process``
    the CLI runs as ``dmap.cli.main(argv)`` in this process.
    """
    workload = WORKLOADS[name]
    data_dir, out_dir = workdir / "data", workdir / "out"
    record = {"setup_s": None, "wall_s": None, "rss_mb": None, "digest": None,
              "problems": []}
    try:
        with trace("setup"):
            record["setup_s"], ds = set_up(workload, seed, data_dir)
        with trace("job"):
            if not workload.uses_files:
                start = time.perf_counter()
                outputs = API_JOBS[name](ds)
                record["wall_s"] = time.perf_counter() - start
                record["digest"], record["problems"] = digest(*outputs)
                return record
            del ds  # the CLI reads the files, so the job does not hold two worlds
            argv = cli_argv(data_dir, out_dir, nproc())
            if in_process:
                record["wall_s"], code = run_cli_inprocess(argv)
                err = ""
            else:
                stderr_path = workdir / "stderr.txt"
                record["wall_s"], record["rss_mb"], code, _ = run_child(
                    ["-m", "dmap.cli", *argv], stderr_path)
                err = stderr_path.read_text(encoding="utf-8", errors="replace").strip()
            if code != 0:
                record["problems"].append(f"dmap exited with code {code}: {err[-500:]}")
            else:
                record["digest"], record["problems"] = cli_outputs(out_dir)
    except Exception:  # a failed job is counted, and the loop goes on
        record["problems"].append(traceback.format_exc(limit=3))
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
        shutil.rmtree(out_dir, ignore_errors=True)
    return record


def repeat(one_cycle, seconds: float) -> list[dict]:
    """Closed loop: ``one_cycle(index)`` until SECONDS have passed, at least
    :data:`MIN_JOBS` times.  Returns the cycles' records."""
    records = []
    start = time.perf_counter()
    while len(records) < MIN_JOBS or time.perf_counter() - start < seconds:
        records.append(one_cycle(len(records)))
    return records


# --- cub-cli ----------------------------------------------------------------

def cli_argv(data_dir, out_dir, threads: int) -> list[str]:
    return ["--threads", str(threads), "pipeline", "--data-dir", str(data_dir),
            "--out-dir", str(out_dir), "--m", "10", "--gamma", "1", "--eta", "1",
            "--test-max-iter", str(TEST_ITERATIONS)]


def run_cli_inprocess(argv: list[str]) -> tuple[float, int]:
    """Call ``dmap.cli.main`` in this process: (wall seconds, exit code)."""
    import contextlib
    import io

    import dmap.cli

    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = dmap.cli.main(argv)
        wall = time.perf_counter() - start
    return wall, code


def _read_text_matrix(path: Path) -> np.ndarray:
    tokens = path.read_text(encoding="utf-8").split()
    rows, cols = int(tokens[2]), int(tokens[3])
    return np.array(tokens[4:], dtype=np.float64).reshape(rows, cols)


def cli_outputs(out_dir: Path) -> tuple[dict, list[str]]:
    """Digest of a pipeline output directory and the problems found in it."""
    final = f"iter{TEST_ITERATIONS}"
    predictions = {}
    for name, file in (("inductive", "pred_inductive.json"),
                       ("transductive", f"pred_{final}.json")):
        obj = json.loads((out_dir / file).read_text(encoding="utf-8"))
        predictions[name] = (obj["predicted"], obj["candidates"], obj["scores"])
    prototypes = _read_text_matrix(out_dir / f"ktilde_u_{final}.dmx")
    report = json.loads((out_dir / f"eval_{final}.json").read_text(encoding="utf-8"))
    last_row = (out_dir / "summary.csv").read_text(encoding="utf-8").splitlines()[-1].split(",")
    values = {"cm": float(last_row[4]), "irc_gap": float(last_row[5]),
              "mpca": report["mean_per_class_accuracy"]}
    return digest(predictions, prototypes, values)


# --- API workloads ------------------------------------------------------------

def _prediction_parts(prediction) -> tuple:
    return prediction.predicted_class, prediction.candidate_ids, prediction.score_matrix


def awa_api_job(ds) -> tuple[dict, np.ndarray, dict]:
    """Train, inductive and transductive inference, evaluation.

    Returns the arguments of :func:`check.digest`."""
    from dmap import evaluation, model

    config = model.DmapConfig(m=20, gamma=1.0, eta=1.0, train_max_iter=2,
                              test_max_iter=TEST_ITERATIONS)
    K_u = ds.embeddings.subset(ds.split.unseen)
    trained = model.train(ds.train, config)
    inductive = model.infer_inductive(trained, ds.test_features, K_u)
    prediction, prototypes = model.infer_transductive(trained, ds.test_features, K_u)
    report = evaluation.evaluate(prediction, ds.test_labels)
    return ({"inductive": _prediction_parts(inductive),
             "transductive": _prediction_parts(prediction)},
            prototypes.data, {"mpca": report.mean_per_class_accuracy})


def many_gzsr_job(ds) -> tuple[dict, np.ndarray, dict]:
    """Pre-inspection, consistency diagnostics, gzsr training and inference.

    Returns the arguments of :func:`check.digest`."""
    from dmap import consistency, core, evaluation, model

    config = model.DmapConfig(m=ds.config.n_per_class, gamma=1.0, eta=1.0, train_max_iter=0,
                              test_max_iter=TEST_ITERATIONS, mode=model.GZSR)
    split = ds.split
    K_s = ds.embeddings.subset(split.seen)
    K_u = ds.embeddings.subset(split.unseen)
    defects = consistency.preinspect(K_s, K_u)
    all_X = np.concatenate([ds.train.features.data, ds.test_features.data], axis=1)
    all_labels = tuple(ds.train.labels) + tuple(ds.test_labels)
    seen_protos = core.class_mean_prototypes(all_X, all_labels, split.seen)
    unseen_protos = core.class_mean_prototypes(all_X, all_labels, split.unseen)
    R_x = consistency.build_relationship_matrix(seen_protos, unseen_protos, config.lam)
    R_k = consistency.build_relationship_matrix(K_s, K_u, config.lam)
    cm = consistency.consistency_measure(seen_protos, R_x, R_k)
    gap = consistency.irc_gap(seen_protos, R_x, R_k)
    trained = model.train(ds.train, config)
    inductive = model.infer_inductive(trained, ds.test_features, K_u, K_s)
    prediction, prototypes = model.infer_transductive(trained, ds.test_features, K_u)
    report = evaluation.evaluate(prediction, ds.test_labels, model.GZSR, ks=(1, 5))
    return ({"inductive": _prediction_parts(inductive),
             "transductive": _prediction_parts(prediction)},
            prototypes.data, {"mpca": report.mean_per_class_accuracy, "cm": cm,
                              "irc_gap": gap, "flagged_pairs": len(defects.flagged_pairs)})


API_JOBS = {"awa-api": awa_api_job, "many-gzsr": many_gzsr_job}

