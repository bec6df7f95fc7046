#!/usr/bin/env python3
"""Sweep the embedding-distortion knob and record how the inter-class
consistency measure tracks inductive recognition accuracy.

For each (seed, distortion) cell this builds a noise-free synthetic
world whose unseen embeddings are shifted inside the seen span, trains
the mapping on seen classes only, and reports:

* ``cm``       — consistency between feature-space and embedding-space
                 inter-class relationships (1 = perfectly consistent)
* ``irc_gap``  — Frobenius gap between the two relationship matrices
* ``czsr_acc`` — mean per-class accuracy over unseen candidates

Usage::

    python3 scripts/distortion_sweep.py --out distortion_sweep.csv
"""

import argparse
import csv
import sys

import numpy as np

from dmap.consistency import consistency_report
from dmap.evaluation import evaluate
from dmap.model import DmapConfig, infer_inductive, train
from dmap.synth import SynthConfig, generate


def run_cell(seed: int, distortion: float, config: DmapConfig) -> dict:
    synth = SynthConfig(
        d=30, p=10, k=15, l=5, n_per_class=50,
        noise_sigma=0.0, irc_distortion=distortion, defect_pairs=0, seed=seed,
    )
    ds = generate(synth)
    model = train(ds.train, config)
    pred = infer_inductive(model, ds.test_features, ds.embeddings.subset(ds.split.unseen))
    acc = evaluate(pred, ds.test_labels).mean_per_class_accuracy

    X_all = np.concatenate([ds.train.features.data, ds.test_features.data], axis=1)
    labels = tuple(ds.train.labels) + tuple(ds.test_labels)
    cm, gap = consistency_report(X_all, labels, ds.split, ds.embeddings, config.lam)
    return {"seed": seed, "distortion": distortion, "cm": cm, "irc_gap": gap,
            "czsr_acc": acc}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="number of seeds per cell")
    parser.add_argument(
        "--distortions", type=float, nargs="+", default=[0.0, 0.25, 0.5, 1.0, 1.5, 2.0],
    )
    parser.add_argument("--out", default="distortion_sweep.csv", help="output CSV path")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")

    config = DmapConfig(
        m=10, lam=1e-6, gamma=1e-10, eta=1e-10, train_max_iter=2, test_max_iter=2,
    )
    rows = [
        run_cell(seed, distortion, config)
        for distortion in args.distortions
        for seed in range(args.seeds)
    ]
    with open(args.out, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)

    print(f"wrote {len(rows)} rows to {args.out}")
    print(f"{'distortion':>10} {'mean cm':>10} {'mean gap':>10} {'mean acc':>10}")
    for distortion in args.distortions:
        cell = [r for r in rows if r["distortion"] == distortion]
        print(
            f"{distortion:>10.2f} "
            f"{np.mean([r['cm'] for r in cell]):>10.4f} "
            f"{np.mean([r['irc_gap'] for r in cell]):>10.4f} "
            f"{np.mean([r['czsr_acc'] for r in cell]):>10.4f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
