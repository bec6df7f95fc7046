#!/usr/bin/env python3
"""Record the result-check references: one job's digest per workload and seed.

Usage::

    python3 perfbench/record_references.py

Run it from the root of a checkout of the commit whose outputs are the
reference; it rewrites ``perfbench/references.json``.  A change to the
program must not need new references: a job whose outputs differ from
them fails the benchmark.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

#: Workload seeds with a reference; they include the default and the held-out seed.
SEEDS = range(32)


def main() -> int:
    threads = run.pin_threads()
    sys.path.insert(0, str(run.SRC))
    import workloads

    env = run.environment(None, threads)
    refs = {"environment": {k: env[k] for k in ("python", "numpy", "scipy", "openblas",
                                                "blas_threads")},
            "workloads": {}}
    for name in workloads.WORKLOADS:
        entries = refs["workloads"][name] = {}
        for seed in SEEDS:
            workdir = run.WORK / f"record-{name}-{seed}"
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                record = workloads.cycle(name, seed, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if record["problems"]:
                raise SystemExit(f"{name} seed {seed}: {record['problems']}")
            entries[str(seed)] = record["digest"]
            print(f"{name} seed {seed}: {record['digest']['values']}", flush=True)
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
