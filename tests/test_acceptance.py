"""Acceptance gate: ten criteria, each enforced at its stated tolerance
and runtime budget.

Every test prints one ``[criterion NN] PASS``/``FAIL`` line (run with
``pytest -s`` to stream them; on failure the line appears in the captured
output).  Criterion 10 exercises user-supplied real datasets and skips
automatically when the files are absent — point ``DMAP_REAL_DATA`` at a
directory holding ``awa/`` and/or ``cub/`` subdirectories in the standard
dataset layout (``train_features.dmx``, ``train_labels.json``,
``test_features.dmx``, ``test_labels.json``, ``embeddings.dmx``,
``split.json``) to enable it.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from dmap.cli import main as cli_main
from dmap.consistency import consistency_report, preinspect
from dmap.evaluation import evaluate
from dmap.io import load_dataset, load_matrix, save_matrix
from dmap.linmap import solve_ridge_map
from dmap.model import (
    DmapConfig,
    infer_inductive,
    infer_transductive,
    knn_prototype,
    train,
)
from dmap.synth import (
    SynthConfig,
    defect_setup,
    exact_recovery_setup,
    generate,
    noisy_setup,
)


def _verdict(num: int, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    in_time = elapsed < budget
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"[criterion {num:02d}] {status} — {detail} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num}: {detail}"
    assert in_time, f"criterion {num}: runtime {elapsed:.2f}s exceeds {budget:.0f}s"


def _dataset_cm_gap(ds, lam):
    X_all = np.concatenate([ds.train.features.data, ds.test_features.data], axis=1)
    labels = tuple(ds.train.labels) + tuple(ds.test_labels)
    return consistency_report(X_all, labels, ds.split, ds.embeddings, lam)


def test_criterion_01_closed_form_matches_normal_equations():
    # 50 random problems; the solver must agree with a dense Kronecker
    # normal-equation solve to 1e-8 relative error and satisfy the
    # analytic stationarity condition to 1e-6 * ||V||.
    t0 = time.monotonic()
    rng = np.random.default_rng(20240501)
    worst_err, worst_res = 0.0, 0.0
    for _ in range(50):
        d = int(rng.integers(2, 21))
        n = int(rng.integers(2, 61))
        p = int(rng.integers(1, 16))
        k = int(rng.integers(1, 11))
        gamma = float(rng.choice([1e-2, 1.0, 1e2]))
        eta = float(rng.choice([1e-2, 1.0, 1e2]))
        X = rng.normal(size=(d, n))
        K = rng.normal(size=(p, k))
        Y = np.full((n, k), -1.0)
        Y[np.arange(n), rng.integers(0, k, size=n)] = 1.0

        V = solve_ridge_map(X, K, Y, gamma, eta)

        A = X @ X.T + gamma * np.eye(d)
        B = K @ K.T + eta * np.eye(p)
        rhs = (X @ Y @ K.T).flatten(order="F")
        V_star = np.linalg.solve(np.kron(B, A), rhs).reshape((d, p), order="F")
        worst_err = max(
            worst_err,
            float(np.linalg.norm(V - V_star) / max(np.linalg.norm(V_star), 1e-300)),
        )

        grad = (
            2.0 * X @ (X.T @ V @ K - Y) @ K.T
            + 2.0 * gamma * V @ K @ K.T
            + 2.0 * eta * X @ X.T @ V
            + 2.0 * gamma * eta * V
        )
        worst_res = max(
            worst_res,
            float(np.linalg.norm(grad) / max(np.linalg.norm(V), 1e-300)),
        )
    elapsed = time.monotonic() - t0
    ok = worst_err <= 1e-8 and worst_res <= 1e-6
    _verdict(1, ok,
             f"50 problems: max oracle error {worst_err:.2e} (<=1e-8), "
             f"max stationarity residual {worst_res:.2e} (<=1e-6)",
             elapsed, 10.0)


def test_criterion_02_exact_recovery():
    # Exactly consistent preset: the relationship gap vanishes, the
    # consistency measure is 1, and restricted-candidate inductive
    # recognition is perfect — for five different seeds.
    t0 = time.monotonic()
    min_cm, max_gap, min_acc = 1.0, 0.0, 1.0
    for seed in range(5):
        synth_cfg, run_cfg = exact_recovery_setup(seed)
        ds = generate(synth_cfg)
        model = train(ds.train, run_cfg)
        pred = infer_inductive(
            model, ds.test_features, ds.embeddings.subset(ds.split.unseen)
        )
        acc = evaluate(pred, ds.test_labels).mean_per_class_accuracy
        cm, gap = _dataset_cm_gap(ds, run_cfg.lam)
        min_cm, max_gap, min_acc = min(min_cm, cm), max(max_gap, gap), min(min_acc, acc)
    elapsed = time.monotonic() - t0
    ok = max_gap <= 1e-8 and min_cm >= 1.0 - 1e-6 and min_acc == 1.0
    _verdict(2, ok,
             f"5 seeds: max irc_gap {max_gap:.2e} (<=1e-8), min cm {min_cm:.10f} "
             f"(>=1-1e-6), min accuracy {min_acc:.4f} (=1)",
             elapsed, 5.0)


def test_criterion_03_defect_detection_and_score_ties():
    # Two planted unseen pairs share their projection onto the seen span:
    # pre-inspection must flag exactly those pairs, and the trained
    # first-path scores of each pair must agree on every test instance.
    t0 = time.monotonic()
    ok = True
    detail = []
    for seed in range(3):
        synth_cfg, run_cfg = defect_setup(seed)
        ds = generate(synth_cfg)
        report = preinspect(
            ds.embeddings.subset(ds.split.seen),
            ds.embeddings.subset(ds.split.unseen),
            epsilon=1e-9,
        )
        flagged = {(a, b) for a, b, _ in report.flagged_pairs}
        expected = {
            (ds.split.unseen[0], ds.split.unseen[1]),
            (ds.split.unseen[2], ds.split.unseen[3]),
        }
        model = train(ds.train, run_cfg)
        pred = infer_inductive(
            model, ds.test_features, ds.embeddings.subset(ds.split.unseen)
        )
        S = pred.score_matrix
        rels = []
        for ca, cb in sorted(expected):
            a = pred.candidate_ids.index(ca)
            b = pred.candidate_ids.index(cb)
            scale = float(np.abs(S[[a, b]]).max())
            rels.append(float(np.abs(S[a] - S[b]).max()) / scale)
        seed_ok = flagged == expected and max(rels) <= 1e-9
        ok = ok and seed_ok
        detail.append(f"seed {seed}: flagged {len(flagged)}/2, max rel diff {max(rels):.1e}")
    elapsed = time.monotonic() - t0
    _verdict(3, ok, "; ".join(detail) + " (<=1e-9)", elapsed, 5.0)


def test_criterion_04_consistency_tracks_distortion():
    # Increasing in-span distortion must not increase the consistency
    # measure (>= 9/10 seeds) nor the seed-averaged accuracy.
    t0 = time.monotonic()
    grid = (0.0, 0.5, 1.0, 2.0)
    seeds = range(10)
    cm_rows = np.zeros((10, len(grid)))
    acc_rows = np.zeros((10, len(grid)))
    for si, seed in enumerate(seeds):
        for gi, dist in enumerate(grid):
            synth_cfg = SynthConfig(
                d=30, p=10, k=15, l=5, n_per_class=50,
                noise_sigma=0.0, irc_distortion=dist, defect_pairs=0, seed=seed,
            )
            run_cfg = DmapConfig(m=10, lam=1e-6, gamma=1e-10, eta=1e-10,
                                 train_max_iter=2, test_max_iter=2)
            ds = generate(synth_cfg)
            model = train(ds.train, run_cfg)
            pred = infer_inductive(
                model, ds.test_features, ds.embeddings.subset(ds.split.unseen)
            )
            acc_rows[si, gi] = evaluate(pred, ds.test_labels).mean_per_class_accuracy
            cm_rows[si, gi] = _dataset_cm_gap(ds, run_cfg.lam)[0]
    cm_monotone = int(np.sum(np.all(np.diff(cm_rows, axis=1) <= 1e-12, axis=1)))
    mean_acc = acc_rows.mean(axis=0)
    acc_monotone = bool(np.all(np.diff(mean_acc) <= 1e-12))
    elapsed = time.monotonic() - t0
    ok = cm_monotone >= 9 and acc_monotone
    _verdict(4, ok,
             f"cm non-increasing in {cm_monotone}/10 seeds (>=9), mean accuracy "
             f"{np.array_str(mean_acc, precision=3)} non-increasing={acc_monotone}",
             elapsed, 60.0)


def test_criterion_05_transductive_gain_direction():
    # On noisy, distorted data the batch-built prototypes must help on
    # average: second-iteration transductive accuracy at least matches
    # inductive accuracy in >= 7/10 seeds and in the mean.
    t0 = time.monotonic()
    gains, wins = [], 0
    for seed in range(10):
        synth_cfg, run_cfg = noisy_setup(seed)
        ds = generate(synth_cfg)
        model = train(ds.train, run_cfg)
        K_u = ds.embeddings.subset(ds.split.unseen)
        acc_i = evaluate(
            infer_inductive(model, ds.test_features, K_u), ds.test_labels
        ).mean_per_class_accuracy
        pred_t2, _ = infer_transductive(model, ds.test_features, K_u, iterations=2)
        acc_t2 = evaluate(pred_t2, ds.test_labels).mean_per_class_accuracy
        gains.append(acc_t2 - acc_i)
        wins += acc_t2 >= acc_i
    mean_gain = float(np.mean(gains))
    elapsed = time.monotonic() - t0
    ok = mean_gain >= 0.0 and wins >= 7
    _verdict(5, ok,
             f"mean transductive gain {mean_gain:+.4f} (>=0), wins {wins}/10 (>=7)",
             elapsed, 120.0)


def test_criterion_06_prototype_iteration_converges():
    # The transductive prototypes move most on the first refinement: the
    # relative change from iteration 1 to 2 exceeds that from 2 to 3 in
    # >= 8/10 seeds.
    t0 = time.monotonic()
    shrinking = 0
    for seed in range(10):
        synth_cfg, run_cfg = noisy_setup(seed)
        ds = generate(synth_cfg)
        model = train(ds.train, run_cfg)
        K_u = ds.embeddings.subset(ds.split.unseen)
        protos = [
            infer_transductive(model, ds.test_features, K_u, iterations=i)[1].data
            for i in (1, 2, 3)
        ]
        c12 = np.linalg.norm(protos[1] - protos[0]) / np.linalg.norm(protos[0])
        c23 = np.linalg.norm(protos[2] - protos[1]) / np.linalg.norm(protos[1])
        shrinking += c12 > c23
    elapsed = time.monotonic() - t0
    ok = shrinking >= 8
    _verdict(6, ok, f"change(1->2) > change(2->3) in {shrinking}/10 seeds (>=8)",
             elapsed, 120.0)


def test_criterion_07_generalized_candidates_degrade_unseen_accuracy():
    # Adding seen candidates steals unseen test instances: generalised
    # unseen-class accuracy falls below the restricted one in >= 9/10
    # noisy seeds.
    t0 = time.monotonic()
    degraded = 0
    for seed in range(10):
        synth_cfg, run_cfg = noisy_setup(seed)
        ds = generate(synth_cfg)
        model = train(ds.train, run_cfg)
        K_u = ds.embeddings.subset(ds.split.unseen)
        K_s = ds.embeddings.subset(ds.split.seen)
        acc_c = evaluate(
            infer_inductive(model, ds.test_features, K_u), ds.test_labels
        ).mean_per_class_accuracy
        acc_g = evaluate(
            infer_inductive(model, ds.test_features, K_u, K_s, mode="gzsr"),
            ds.test_labels, mode="gzsr",
        ).mean_per_class_accuracy
        degraded += acc_g < acc_c
    elapsed = time.monotonic() - t0
    ok = degraded >= 9
    _verdict(7, ok, f"gzsr < czsr unseen accuracy in {degraded}/10 seeds (>=9)",
             elapsed, 60.0)


def test_criterion_08_knn_prototype_matches_exhaustive_oracle():
    # 100 random configurations on integer grids (squared distances are
    # exact, ties are common): the selected neighbour sets — and hence
    # the averaged prototypes — must match a sort-based oracle exactly.
    t0 = time.monotonic()
    rng = np.random.default_rng(8_0808)
    mismatches = 0
    for trial in range(100):
        p = int(rng.integers(1, 6))
        d = int(rng.integers(1, 6))
        n = int(rng.integers(1, 40))
        m = int(rng.integers(1, n + 1))
        span = int(rng.integers(1, 4))  # tiny value range forces ties
        predictions = rng.integers(-span, span + 1, size=(p, n)).astype(np.float64)
        features = rng.integers(-5, 6, size=(d, n)).astype(np.float64)
        anchor = rng.integers(-span, span + 1, size=p).astype(np.float64)

        dist = [
            (float(np.sum((predictions[:, i] - anchor) ** 2)), i)
            for i in range(n)
        ]
        idx = sorted(i for _, i in sorted(dist)[:m])
        expected = features[:, idx].mean(axis=1)
        got = knn_prototype(anchor, predictions, features, m)
        mismatches += not np.array_equal(got, expected)
    elapsed = time.monotonic() - t0
    ok = mismatches == 0
    _verdict(8, ok, f"100 configurations, {mismatches} mismatches (=0)",
             elapsed, 5.0)


def test_criterion_09_determinism_and_round_trip(tmp_path):
    # The full pipeline run twice over the same inputs produces
    # byte-identical output trees, and the text matrix format returns
    # 1000 random doubles bit-exactly.
    t0 = time.monotonic()
    synth_json = tmp_path / "synth.json"
    synth_json.write_text(json.dumps({
        "d": 30, "p": 10, "k": 15, "l": 5, "n_per_class": 10, "seed": 123,
    }))
    data_dir = tmp_path / "data"
    assert cli_main(["synth", "--config", str(synth_json),
                     "--out-dir", str(data_dir)]) == 0
    flags = ["--m", "10", "--lambda", "1e-6", "--gamma", "1e-10",
             "--eta", "1e-10", "--train-max-iter", "2", "--test-max-iter", "2"]
    out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
    for out in (out_a, out_b):
        assert cli_main(["pipeline", "--data-dir", str(data_dir),
                         "--out-dir", str(out)] + flags) == 0
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    identical = files_a == files_b and all(
        (out_a / rel).read_bytes() == (out_b / rel).read_bytes() for rel in files_a
    )

    rng = np.random.default_rng(909)
    values = rng.standard_normal((25, 40)) * np.exp(rng.uniform(-300, 300, (25, 40)))
    save_matrix(values, tmp_path / "roundtrip.dmx")
    loaded = load_matrix(tmp_path / "roundtrip.dmx")
    bit_exact = bool(np.array_equal(loaded.view(np.uint64), values.view(np.uint64)))

    elapsed = time.monotonic() - t0
    ok = identical and bit_exact
    _verdict(9, ok,
             f"pipeline reruns byte-identical over {len(files_a)} files: {identical}; "
             f"1000-double round trip bit-exact: {bit_exact}",
             elapsed, 10.0)


def test_criterion_10_real_data_reproduction():
    # Optional: user-supplied real datasets.  AwA (vgg features / att
    # embeddings) must reproduce inductive ~78.71% and transductive
    # iteration-2 ~85.66% restricted accuracy within +/-2 points; CUB
    # (goog features / att embeddings) must measure cm ~= 0.47 +/- 0.05.
    root = os.environ.get("DMAP_REAL_DATA")
    if not root:
        pytest.skip("DMAP_REAL_DATA not set; real-data files absent")
    root = Path(root)
    awa = root / "awa"
    cub = root / "cub"
    if not (awa / "split.json").exists() and not (cub / "split.json").exists():
        pytest.skip(f"no awa/ or cub/ dataset directories under {root}")

    t0 = time.monotonic()
    checks = []
    if (awa / "split.json").exists():
        train_set, test_features, test_labels, embeddings = load_dataset(awa)
        config = DmapConfig(test_max_iter=2)
        model = train(train_set, config)
        K_u = embeddings.subset(train_set.split.unseen)
        acc_i = evaluate(
            infer_inductive(model, test_features, K_u), test_labels
        ).mean_per_class_accuracy
        pred_t2, _ = infer_transductive(model, test_features, K_u, iterations=2)
        acc_t2 = evaluate(pred_t2, test_labels).mean_per_class_accuracy
        checks.append((f"awa inductive {acc_i:.4f} in 0.7871+/-0.02",
                       abs(acc_i - 0.7871) <= 0.02))
        checks.append((f"awa transductive iter2 {acc_t2:.4f} in 0.8566+/-0.02",
                       abs(acc_t2 - 0.8566) <= 0.02))
    if (cub / "split.json").exists():
        train_set, test_features, test_labels, embeddings = load_dataset(cub)
        X_all = np.concatenate([train_set.features.data, test_features.data], axis=1)
        labels = tuple(train_set.labels) + tuple(test_labels)
        cm, _ = consistency_report(X_all, labels, train_set.split, embeddings, 1e-4)
        checks.append((f"cub cm {cm:.4f} in 0.47+/-0.05", abs(cm - 0.47) <= 0.05))
    elapsed = time.monotonic() - t0
    ok = all(passed for _, passed in checks)
    _verdict(10, ok, "; ".join(msg for msg, _ in checks), elapsed, 600.0)
