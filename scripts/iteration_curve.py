#!/usr/bin/env python3
"""Trace recognition accuracy across transductive refinement iterations.

Builds noisy, distorted synthetic worlds, trains the seen-class mapping,
and evaluates unseen-class accuracy for iteration 0 (pure inductive
scoring against the given embeddings) through ``--iterations`` rounds of
batch prototype refinement.  Also reports how much the refined unseen
prototypes move between consecutive rounds, which shows the refinement
settling.

Usage::

    python3 scripts/iteration_curve.py --seeds 10 --iterations 4
"""

import argparse
import csv
import sys

import numpy as np

from dmap.evaluation import evaluate
from dmap.model import infer_inductive, train, transductive_rounds
from dmap.synth import generate, noisy_setup


def run_seed(seed: int, iterations: int) -> list[dict]:
    synth, config = noisy_setup(seed)
    ds = generate(synth)
    model = train(ds.train, config)
    K_u = ds.embeddings.subset(ds.split.unseen)

    rows = []
    pred = infer_inductive(model, ds.test_features, K_u)
    rows.append({
        "seed": seed,
        "iteration": 0,
        "czsr_acc": evaluate(pred, ds.test_labels).mean_per_class_accuracy,
        "prototype_change": "",
    })
    previous = None
    rounds = transductive_rounds(model, ds.test_features, K_u, None, iterations)
    for it, (pred, protos) in enumerate(rounds, start=1):
        change = (
            ""
            if previous is None
            else np.linalg.norm(protos.data - previous) / np.linalg.norm(previous)
        )
        rows.append({
            "seed": seed,
            "iteration": it,
            "czsr_acc": evaluate(pred, ds.test_labels).mean_per_class_accuracy,
            "prototype_change": change,
        })
        previous = protos.data
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--iterations", type=int, default=4)
    parser.add_argument("--out", default="iteration_curve.csv", help="output CSV path")
    args = parser.parse_args(argv)

    rows = [row for seed in range(args.seeds) for row in run_seed(seed, args.iterations)]
    with open(args.out, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)

    print(f"wrote {len(rows)} rows to {args.out}")
    print(f"{'iteration':>9} {'mean acc':>10} {'mean prototype change':>22}")
    for it in range(args.iterations + 1):
        cell = [r for r in rows if r["iteration"] == it]
        changes = [r["prototype_change"] for r in cell if r["prototype_change"] != ""]
        change = f"{np.mean(changes):>22.4f}" if changes else f"{'':>22}"
        print(f"{it:>9d} {np.mean([r['czsr_acc'] for r in cell]):>10.4f} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
