"""Runs the cycles of an API workload in a process of their own, so that
process's peak RSS is the workload's.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS WORKDIR

Repeats :func:`workloads.cycle` (closed loop) until SECONDS have passed and
prints one JSON line with a record per cycle.  The parent reads the peak
RSS from ``wait4``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv) -> int:
    name, seed, seconds, workdir = argv[0], int(argv[1]), float(argv[2]), Path(argv[3])
    import workloads

    jobs = workloads.repeat(lambda _: workloads.cycle(name, seed, workdir), seconds)
    print(json.dumps({"jobs": jobs}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
