#!/usr/bin/env python3
"""The dmap benchmark: closed-loop workloads, a result check, a traced run.

Usage::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  ``--seconds`` defaults to ``run_seconds``
of ``BENCHMARK.json``.  A workload repeats one cycle for that long, one
client at a time (a closed loop): set-up, which
generates the inputs from ``--seed`` (and writes them, for the CLI), then
one job on them.  Set-ups are spread over the run this way, so their
median is no more exposed to a slow spell of the machine than the jobs'.
Every job's outputs are checked against the first job's and, where
recorded, against ``references.json``.  BLAS thread pools are pinned to
``nproc``.

With ``--trace 0`` the end-to-end metrics are reported, with tracing off.
With ``--trace 1`` all cycles run in this process, and every other job is
traced: each call of a public ``dmap`` function records a span (see
``spans.py``).  The per-layer metrics are medians over traced jobs, and
the spans are written to ``.bench_work/trace-<workload>-seed<N>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it name every metric with its unit, record the environment and say, on a
``check`` line per workload, whether the outputs were compared with
``references.json``.  The exit code is 1 when a job failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"
REFERENCES = HERE / "references.json"

#: The workload seed used while writing a change, and the one held out
#: to check a claim afterwards.  References are recorded for both.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics, named ``<layer>.<function>.<field>``.  Fields are
#: summed over a job's spans of that function; ``self_s`` excludes child
#: spans; ``mb`` and ``gflop`` are computed from the arguments.
PER_LAYER = (
    "io.load_dataset.s",
    "io.load_matrix.calls", "io.load_matrix.s", "io.load_matrix.mb", "io.load_matrix.mb_per_s",
    "io.save_matrix.s", "io.save_matrix.mb",
    "io.save_prediction.s", "io.save_prediction.mb",
    "io.save_model.s",
    "linmap.solve_ridge_map.calls", "linmap.solve_ridge_map.s",
    "linmap.solve_ridge_map.gflop", "linmap.solve_ridge_map.gflop_per_s",
    "linmap.predict_semantic.calls", "linmap.predict_semantic.s",
    "linmap.predict_semantic.gflop",
    "model.train.s", "model.train.self_s",
    "model.knn_prototype.calls", "model.knn_prototype.s",
    "model.infer_transductive.calls", "model.infer_transductive.s",
    "model.infer_transductive.self_s",
    "model.infer_inductive.s",
    "consistency.preinspect.s",
    "consistency.build_relationship_matrix.calls", "consistency.build_relationship_matrix.s",
    "consistency.extract_relationship.calls", "consistency.extract_relationship.s",
    "consistency.consistency_measure.s", "consistency.irc_gap.s",
    "core.class_mean_prototypes.s",
    "evaluation.evaluate.s",
    "synth.generate.s",
    "cli.main.self_s",
    "trace.overhead_s",
)

FIELD_UNITS = {"calls": "count", "s": "s", "self_s": "s", "mb": "MB", "mb_per_s": "MB/s",
               "gflop": "GFLOP", "gflop_per_s": "GFLOP/s", "overhead_s": "s"}


def metric_unit(name: str) -> str:
    return FIELD_UNITS[name.rsplit(".", 1)[1]]


def pin_threads() -> int:
    """Pin the BLAS thread pools to ``nproc``; call it before NumPy loads."""
    threads = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def parse_args(argv):
    parser = argparse.ArgumentParser(description="dmap benchmark")
    parser.add_argument("--workload", default="all",
                        help="cub-cli, awa-api, many-gzsr, or all (default)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of each workload's run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# --- environment --------------------------------------------------------------

def environment(seed: int, threads: int) -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((SRC / "dmap").glob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("openblas configuration", blas.get("version")),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_dmap_lines": lines,
        "file_cache": "warm: set-up writes the input files just before the jobs read "
                      "them, and the page cache is not dropped",
    }


def reference_for(name: str, seed: int, env: dict) -> tuple[dict | None, str]:
    """Recorded digest for this workload and seed, if recorded in this environment."""
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    entry = refs["workloads"].get(name, {}).get(str(seed))
    if entry is None:
        return None, f"no reference recorded for seed {seed}"
    recorded = refs["environment"]
    if (recorded["openblas"], recorded["blas_threads"]) != (env["openblas"], env["blas_threads"]):
        return None, (f"reference recorded with {recorded['openblas']!r} on "
                      f"{recorded['blas_threads']} BLAS threads; not comparable here")
    return entry, f"reference for seed {seed}"


# --- untraced and traced runs ---------------------------------------------------

def worker_cycles(name: str, seed: int, seconds: float,
                  workdir: Path) -> tuple[list[dict], float]:
    """API cycles in a worker process: (records, the worker's peak RSS in MB)."""
    import workloads

    stderr_path = workdir / "worker-stderr.txt"
    args = [str(HERE / "worker.py"), name, str(seed), str(seconds), str(workdir)]
    _, rss, code, out = workloads.run_child(args, stderr_path)
    if code != 0:
        err = stderr_path.read_text(encoding="utf-8", errors="replace").strip()
        return [{"setup_s": None, "wall_s": None, "digest": None,
                 "problems": [f"worker exited with code {code}: {err[-500:]}"]}], 0.0
    return json.loads(out)["jobs"], rss


def median_of(key: str, jobs) -> float:
    values = [j[key] for j in jobs if j.get(key) is not None]
    return statistics.median(values) if values else float("nan")


def layer_value(totals: dict, metric: str) -> float:
    function, field = metric.rsplit(".", 1)
    t = totals.get(function, {})
    if field in ("mb_per_s", "gflop_per_s"):
        amount = t.get(field[: -len("_per_s")], 0.0)
        return amount / t["s"] if t.get("s") else 0.0
    return float(t.get(field, 0))


def traced_cycles(name: str, seed: int, seconds: float,
                  workdir: Path) -> tuple[list[dict], dict, "object"]:
    """Cycles in this process with every set-up and every other job traced."""
    import spans as sp
    import workloads

    recorder = sp.SpanRecorder()

    def one_cycle(index: int) -> dict:
        traced = index % 2 == 1

        def trace(phase: str):
            # Set-up spans get their own job id, so they stay out of the job's totals.
            recorder.job = index if phase == "job" else -1 - index
            return sp.instrument(recorder) if traced or phase == "setup" else nullcontext()

        return dict(workloads.cycle(name, seed, workdir, in_process=True, trace=trace),
                    traced=traced)

    jobs = workloads.repeat(one_cycle, seconds)
    per_job = [sp.totals(recorder.job_spans(i)) for i, j in enumerate(jobs) if j["traced"]]
    generate = [s.duration for s in recorder.spans if s.name == "synth.generate"]
    metrics = {}
    for metric in PER_LAYER:
        if metric == "synth.generate.s":
            metrics[metric] = statistics.median(generate) if generate else float("nan")
        elif metric == "trace.overhead_s":
            metrics[metric] = (median_of("wall_s", [j for j in jobs if j["traced"]])
                               - median_of("wall_s", [j for j in jobs if not j["traced"]]))
        else:
            metrics[metric] = statistics.median(layer_value(t, metric) for t in per_job)
    return jobs, metrics, recorder


# --- one workload -----------------------------------------------------------------

def check_jobs(jobs: list[dict], reference: dict | None) -> None:
    """Add to each job's problems its differences from the first job and the reference."""
    from check import compare

    first = next((j["digest"] for j in jobs if j.get("digest") is not None), None)
    for j in jobs:
        if j.get("digest") is None:
            if not j["problems"]:
                j["problems"].append("no outputs")
            continue
        j["problems"] += [f"differs from the first job: {p}" for p in compare(j["digest"], first)]
        if reference is not None:
            j["problems"] += [f"differs from the reference: {p}"
                              for p in compare(j["digest"], reference)]


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 env: dict) -> tuple[list[dict], dict]:
    import workloads

    reference, ref_note = reference_for(name, seed, env)
    workdir = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if trace:
            jobs, metrics, recorder = traced_cycles(name, seed, seconds, workdir)
            recorder.dump(WORK / f"trace-{name}-seed{seed}.json")
        else:
            if workloads.WORKLOADS[name].uses_files:
                jobs = workloads.repeat(lambda _: workloads.cycle(name, seed, workdir), seconds)
                rss = median_of("rss_mb", jobs)
            else:
                jobs, rss = worker_cycles(name, seed, seconds, workdir)
            metrics = {"wall_s": median_of("wall_s", jobs),
                       "setup_s": median_of("setup_s", jobs),
                       "peak_rss_mb": rss}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_jobs(jobs, reference)

    failed = sum(1 for j in jobs if j["problems"])
    first = next((j["digest"] for j in jobs if j.get("digest")), {"values": {}})
    print(f"[{name}] seed {seed}: {len(jobs)} set-up + job cycle(s), {failed} failed; "
          f"timings are medians over cycles; results: "
          + ", ".join(f"{k}={v!r}" for k, v in sorted(first["values"].items())))
    print("check " + json.dumps({"workload": name, "reference_checked": reference is not None,
                                 "note": ref_note}))
    for j in jobs:
        for problem in j["problems"]:
            print(f"[{name}]   problem: {problem}")
    for metric, value in metrics.items():
        unit = END_TO_END.get(metric) or metric_unit(metric)
        print(f"[{name}] {metric} = {value:.6g} {unit}")
    return jobs, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dmap" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"perfbench: no dmap package under {SRC} or no {SPEC.name}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads(SPEC.read_text(encoding="utf-8"))["run_seconds"]
    threads = pin_threads()
    sys.path[:0] = [str(HERE), str(SRC)]

    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}", file=sys.stderr)
        return 2

    env = environment(args.seed, threads)
    print("env " + json.dumps(env, sort_keys=True))
    attempted = failed = 0
    metrics = {}
    for name in names:
        jobs, values = run_workload(name, args.seed, seconds, args.trace, env)
        attempted += len(jobs)
        failed += sum(1 for j in jobs if j["problems"])
        prefix = "" if len(names) == 1 else f"{name}/"
        for metric, value in values.items():
            unit = END_TO_END.get(metric) or metric_unit(metric)
            metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
