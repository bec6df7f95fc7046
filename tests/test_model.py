"""Tests for training (dual mapping paths + prototype refinement) and for
inductive / transductive inference.

The kNN prototype constructor is checked against a brute-force oracle on
integer-valued inputs, where squared distances are exact in float64 and
ties are genuine, so equality can be demanded bitwise.
"""

import logging
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmap.core import (
    EmbeddingMatrix,
    FeatureMatrix,
    LabeledDataset,
    class_mean_prototypes,
    l2_normalize_columns,
)
from dmap.errors import DimensionMismatch, EmptyTestSet, NumericalError, ValidationError
from dmap.linmap import predict_semantic, ridge_feature_side, solve_ridge_map
from dmap.model import (
    CZSR,
    GZSR,
    TRAINED_FIELDS,
    DmapConfig,
    _prepare_features,
    _refine_prototypes,
    _span_projection,
    knn_prototype,
    infer_inductive,
    infer_transductive,
    train,
    transductive_rounds,
)
from dmap.synth import SynthConfig, defect_setup, exact_recovery_setup, generate, noisy_setup
from oracles import with_config


def stable_argsort_prototype(anchor, predictions, features, m):
    """The per-class reference formula: a stable argsort of the column sums
    of squared differences, averaging the selected columns in index order."""
    diff = predictions - anchor[:, None]
    nearest = np.argsort(np.sum(diff * diff, axis=0), kind="stable")[:m]
    return features[:, np.sort(nearest)].mean(axis=1)


def knn_oracle_indices(anchor, predictions, m):
    """Brute-force nearest-m with (distance, index) lexicographic order.

    Returns the selected indices in ascending index order, matching the
    averaging order of the implementation.
    """
    d = [
        (float(np.sum((predictions[:, i] - anchor) ** 2)), i)
        for i in range(predictions.shape[1])
    ]
    return sorted(i for _, i in sorted(d)[:m])


@pytest.fixture(scope="module")
def exact_world():
    synth_cfg, run_cfg = exact_recovery_setup(seed=0)
    data = generate(synth_cfg)
    model = train(data.train, run_cfg)
    return data, model


@pytest.fixture(scope="module")
def noisy_world():
    synth_cfg, run_cfg = noisy_setup(seed=0)
    data = generate(synth_cfg)
    model = train(data.train, run_cfg)
    return data, model


@pytest.fixture(scope="module")
def centred_exact_model(exact_world):
    """``exact_world``'s model trained again with ``center=True``."""
    data, model = exact_world
    return train(data.train, replace(model.config, center=True))


@pytest.fixture(scope="module")
def centred_noisy_model(noisy_world):
    """``noisy_world``'s model trained again with ``center=True``."""
    data, model = noisy_world
    return train(data.train, replace(model.config, center=True))


class TestConfigValidation:
    def test_defaults_are_valid(self):
        DmapConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m": 0},
            {"lam": -1.0},
            {"gamma": -0.1},
            {"eta": -0.1},
            {"train_max_iter": -1},
            {"test_max_iter": -1},
            {"convergence_tol": 0.0},
            {"mode": "open-set"},
            {"gamma": float("nan")},
            {"eta": float("inf")},
            {"lam": float("nan")},
            {"convergence_tol": float("nan")},
            {"convergence_tol": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValidationError):
            DmapConfig(**kwargs)

    def test_trained_fields_come_from_the_field_metadata(self):
        assert TRAINED_FIELDS == ("gamma", "eta", "train_max_iter", "convergence_tol",
                                  "normalize", "center")


class TestModelInvariants:
    """A ``DmapModel`` carries a feature mean exactly when it centres, of
    the length of ``f_s``'s rows, and prototypes of ``f_tilde``'s dimension."""

    @pytest.mark.parametrize("center, mean_rows, error", [
        (False, 0, "takes no feature_mean"),
        (True, None, "needs feature_mean"),
        (True, 1, "feature_mean of shape"),
        (True, -1, "feature_mean of shape"),
    ])
    def test_mean_must_match_centring(self, exact_world, center, mean_rows, error):
        _, model = exact_world
        mean = None if mean_rows is None else np.zeros(model.f_s.shape[0] + mean_rows)
        with pytest.raises(ValidationError, match=error):
            replace(model, config=replace(model.config, center=center), feature_mean=mean)

    def test_prototypes_must_match_the_second_path(self, exact_world):
        _, model = exact_world
        k = model.k_tilde_s.data
        with pytest.raises(ValidationError, match="second path maps into dim"):
            replace(model, k_tilde_s=EmbeddingMatrix(np.vstack([k, k[:1]]),
                                                     model.k_tilde_s.class_ids))

    def test_centred_model_without_its_mean_refused(self):
        # Without the check, each test batch was centred on its own mean.
        synth_cfg, run_cfg = noisy_setup(seed=0)
        data = generate(synth_cfg)
        model = train(data.train, replace(run_cfg, center=True))
        with pytest.raises(ValidationError, match="needs feature_mean"):
            replace(model, feature_mean=None)


class TestKnnPrototype:
    def test_m1_exact_match_returns_that_feature(self):
        predictions = np.array([[0.0, 1.0, 3.0], [0.0, 0.0, 0.0]])
        features = np.array([[10.0, 20.0, 30.0], [1.0, 2.0, 3.0]])
        proto = knn_prototype(np.array([1.0, 0.0]), predictions, features, m=1)
        assert np.array_equal(proto, features[:, 1])

    def test_m2_averages_two_nearest(self):
        predictions = np.array([[0.0, 1.0, 3.0, 7.0]])
        features = np.array([[0.0, 10.0, 100.0, 1000.0], [4.0, 8.0, 12.0, 16.0]])
        proto = knn_prototype(np.array([0.9]), predictions, features, m=2)
        # nearest two predictions are 1.0 and 0.0 -> features columns 0, 1
        assert np.array_equal(proto, features[:, [0, 1]].mean(axis=1))

    def test_m_equal_n_gives_global_mean(self, rng):
        predictions = rng.normal(size=(3, 8))
        features = rng.normal(size=(5, 8))
        proto = knn_prototype(rng.normal(size=3), predictions, features, m=8)
        assert np.allclose(proto, features.mean(axis=1))

    def test_m_beyond_n_clamps_with_warning(self, rng, caplog):
        predictions = rng.normal(size=(3, 4))
        features = rng.normal(size=(2, 4))
        with caplog.at_level(logging.WARNING, logger="dmap.model"):
            proto = knn_prototype(np.zeros(3), predictions, features, m=9)
        assert any("clamp" in rec.message for rec in caplog.records)
        assert np.allclose(proto, features.mean(axis=1))
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="dmap.model"):
            protos = _refine_prototypes(rng.normal(size=(3, 5)), predictions, features, m=9)
        assert [rec.message for rec in caplog.records if "clamp" in rec.message] == [
            "m=9 exceeds the 4 available instances; clamping"]
        assert np.array_equal(protos, np.repeat(proto[:, None], 5, axis=1))

    def test_distance_tie_prefers_lower_index(self):
        # anchor 1.0 is equidistant from predictions 0.0 and 2.0
        predictions = np.array([[2.0, 0.0, 5.0]])
        features = np.array([[111.0, 222.0, 333.0]])
        proto = knn_prototype(np.array([1.0]), predictions, features, m=1)
        assert proto[0] == 111.0

    def test_matches_brute_force_oracle_with_ties(self):
        # Integer grids make ties common and distances exact.
        rng = np.random.default_rng(1234)
        for _ in range(50):
            p = int(rng.integers(1, 5))
            d = int(rng.integers(1, 5))
            n = int(rng.integers(1, 30))
            m = int(rng.integers(1, n + 1))
            predictions = rng.integers(-2, 3, size=(p, n)).astype(np.float64)
            features = rng.integers(-5, 6, size=(d, n)).astype(np.float64)
            anchor = rng.integers(-2, 3, size=p).astype(np.float64)
            idx = knn_oracle_indices(anchor, predictions, m)
            expected = features[:, idx].mean(axis=1)
            got = knn_prototype(anchor, predictions, features, m)
            assert np.array_equal(got, expected)

    def test_anchor_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            knn_prototype(np.zeros(3), np.zeros((2, 4)), np.zeros((5, 4)), m=1)

    def test_prediction_feature_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            knn_prototype(np.zeros(2), np.zeros((2, 4)), np.zeros((5, 3)), m=1)

    def test_m_below_one_rejected(self):
        with pytest.raises(ValidationError):
            knn_prototype(np.zeros(2), np.zeros((2, 4)), np.zeros((5, 4)), m=0)

    def test_no_instances_rejected(self):
        with pytest.raises(ValidationError, match="no instances"):
            knn_prototype(np.zeros(2), np.zeros((2, 0)), np.zeros((5, 0)), m=1)

    @pytest.mark.parametrize("m", [2.5, 2.0, "2", None, True])
    def test_non_integral_m_rejected(self, m):
        with pytest.raises(ValidationError, match="^m must be an integer"):
            knn_prototype(np.zeros(2), np.zeros((2, 4)), np.zeros((5, 4)), m)
        with pytest.raises(ValidationError, match="^m must be an integer"):
            _refine_prototypes(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((5, 4)), m)

    @pytest.mark.parametrize("m", [np.int64(2), np.int32(2), np.uint8(2)])
    def test_numpy_integer_m_accepted(self, m):
        predictions = np.array([[0.0, 1.0, 3.0, 7.0]])
        features = np.array([[0.0, 10.0, 100.0, 1000.0]])
        assert np.array_equal(knn_prototype(np.array([0.9]), predictions, features, m),
                              knn_prototype(np.array([0.9]), predictions, features, 2))

    @pytest.mark.parametrize("predictions, features", [
        (np.zeros(4), np.zeros((5, 4))),
        (np.zeros((1, 4)), np.zeros(4)),
        (np.zeros((1, 1, 4)), np.zeros((5, 4))),
        (np.float64(1.0), np.zeros((5, 1))),
    ])
    def test_non_matrix_inputs_rejected(self, predictions, features):
        with pytest.raises(ValidationError, match="each must be a non-empty 2-D matrix"):
            knn_prototype(np.zeros(1), predictions, features, 1)


class TestTrain:
    def test_shapes_and_metadata(self, exact_world):
        data, model = exact_world
        d = data.train.features.d
        assert model.f_s.shape == (d, data.config.p)
        assert model.f_tilde.shape == (d, d)
        assert model.k_tilde_s.data.shape == (d, data.config.k)
        assert model.k_tilde_s.class_ids == data.split.seen
        assert 0 <= model.train_iterations_run <= model.config.train_max_iter

    def test_exact_world_prototypes_are_class_means(self, exact_world):
        # Noise-free features with m = instances-per-class: the m nearest
        # predictions of each class anchor are exactly that class's own
        # instances, so the refined prototypes equal the class means.
        data, model = exact_world
        means = class_mean_prototypes(
            data.train.features, data.train.labels, data.split.seen
        )
        assert np.allclose(model.k_tilde_s.data, means.data, atol=1e-12)

    def test_exact_world_stops_early(self, exact_world):
        # Prototypes are stationary after one refinement pass on exactly
        # consistent data, so the loop exits before the iteration cap.
        data, model = exact_world
        assert model.train_iterations_run < model.config.train_max_iter

    def test_zero_refinement_iterations_keep_initial_prototypes(self):
        from dmap.core import build_label_matrix

        synth_cfg, run_cfg = exact_recovery_setup(seed=1)
        data = generate(synth_cfg)
        K_seen = data.train.semantic.subset(data.split.seen).data
        Y = build_label_matrix(data.train.labels, data.split.seen)
        for center in (False, True):
            config = replace(run_cfg, train_max_iter=0, center=center)
            model = train(data.train, config)
            assert model.train_iterations_run == 0

            # Reproduce the initial prototype construction by hand, on the
            # features prepared as training prepares them, and check the
            # second path was fit against exactly those prototypes.
            X, _ = _prepare_features(data.train.features.data, config, None)
            f_s = solve_ridge_map(X, K_seen, Y, config.gamma, config.eta)
            preds = predict_semantic(f_s, X)
            k_tilde = np.stack(
                [
                    knn_prototype(K_seen[:, i], preds, X, config.m)
                    for i in range(K_seen.shape[1])
                ],
                axis=1,
            )
            assert np.array_equal(model.k_tilde_s.data, k_tilde)
            expected = solve_ridge_map(X, k_tilde, Y, config.gamma, config.eta)
            assert np.array_equal(model.f_tilde, expected)

    def test_training_is_deterministic(self):
        synth_cfg, run_cfg = exact_recovery_setup(seed=2)
        data = generate(synth_cfg)
        a = train(data.train, run_cfg)
        b = train(data.train, run_cfg)
        assert np.array_equal(a.f_s, b.f_s)
        assert np.array_equal(a.f_tilde, b.f_tilde)
        assert np.array_equal(a.k_tilde_s.data, b.k_tilde_s.data)
        assert a.train_iterations_run == b.train_iterations_run

    def test_center_stores_training_mean_and_reuses_it(self):
        synth_cfg, run_cfg = exact_recovery_setup(seed=3)
        from dataclasses import replace

        run_cfg = replace(run_cfg, center=True)
        data = generate(synth_cfg)
        model = train(data.train, run_cfg)
        assert model.feature_mean is not None
        assert np.allclose(
            model.feature_mean, data.train.features.data.mean(axis=1)
        )
        # Centering the test batch must use the *training* mean: shifting
        # every test feature by a constant vector leaves scores unchanged
        # only if the stored mean (not the batch mean) is subtracted, so
        # simply check the prediction runs and is deterministic.
        K_u = data.embeddings.subset(data.split.unseen)
        pred = infer_inductive(model, data.test_features, K_u)
        pred2 = infer_inductive(model, data.test_features, K_u)
        assert pred.predicted_class == pred2.predicted_class

    @pytest.mark.parametrize("iterations", [0, 2])
    def test_feature_side_is_solved_once_per_train(self, monkeypatch, iterations):
        import dmap.model
        from dataclasses import replace

        solved, passed = [], []
        real_side, real_solve = dmap.model.ridge_feature_side, dmap.model.solve_ridge_map

        def counting_side(*args, **kwargs):
            solved.append(real_side(*args, **kwargs))
            return solved[-1]

        def recording_solve(*args, **kwargs):
            passed.append(kwargs.get("feature_side"))
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(dmap.model, "ridge_feature_side", counting_side)
        monkeypatch.setattr(dmap.model, "solve_ridge_map", recording_solve)
        synth_cfg, run_cfg = noisy_setup(seed=1)
        model = train(generate(synth_cfg).train, replace(run_cfg, train_max_iter=iterations))
        assert model.train_iterations_run == iterations
        assert len(solved) == 1
        assert len(passed) == 2 + iterations
        assert all(T is solved[0] for T in passed)


#: The awa-api and cub-cli shapes of perfbench/workloads.py, with the ``m``
#: of their jobs; training projects its predictions at both.
PROJECTED_SHAPES = {
    "awa-api": (dict(d=768, p=85, k=40, l=10, n_per_class=40, noise_sigma=0.05,
                     irc_distortion=0.2), 20),
    "cub-cli": (dict(d=256, p=160, k=150, l=50, n_per_class=10, noise_sigma=0.05,
                     irc_distortion=0.2), 10),
}


class TestSpanProjection:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("shape", sorted(PROJECTED_SHAPES))
    def test_training_keeps_the_bytes_of_dense_predictions(self, monkeypatch, shape, seed):
        import dmap.model

        synth_shape, m = PROJECTED_SHAPES[shape]
        data = generate(SynthConfig(**synth_shape, seed=seed))
        projected = []

        def recording(T, X):
            project, W = _span_projection(T, X)
            projected.append(W.shape)
            return project, W

        for center in (False, True):
            config = DmapConfig(m=m, gamma=1.0, eta=1.0, train_max_iter=2, center=center)
            monkeypatch.setattr(dmap.model, "_span_projection", recording)
            model = train(data.train, config)
            monkeypatch.setattr(dmap.model, "_span_projection", lambda T, X: ((lambda V: V), X))
            dense = train(data.train, config)
            assert projected.pop() == (synth_shape["k"], data.train.features.n)
            for name in ("f_s", "f_tilde"):
                assert getattr(model, name).tobytes() == getattr(dense, name).tobytes()
            assert model.k_tilde_s.data.tobytes() == dense.k_tilde_s.data.tobytes()
            assert model.train_iterations_run == dense.train_iterations_run

    @pytest.mark.parametrize("d, n", [(60, 90), (90, 60)])
    @pytest.mark.parametrize("p", [5, 40])  # p <= k and p > k: both embedding sides
    def test_projected_predictions_are_the_maps_predictions(self, d, n, p):
        rng = np.random.default_rng(d + p)
        k = 8
        X = rng.normal(size=(d, n))
        Y = np.where(np.arange(n)[:, None] % k == np.arange(k), 1.0, -1.0)
        T = ridge_feature_side(X, Y, 1.0)
        V = solve_ridge_map(X, rng.normal(size=(p, k)), Y, 1.0, 1.0, feature_side=T)
        project, W = _span_projection(T, X)
        assert W.shape == (k, n) and project(V).shape == (k, p)
        want = predict_semantic(V, X)
        got = predict_semantic(project(V), W)
        assert np.allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("d, n, k, projects", [
        (4, 4, 2, False),         # k (d + n) == d n
        (5, 4, 2, True),          # 18 < 20
        (160, 900, 300, False),   # many-gzsr: k > d
        (768, 1600, 40, True),    # awa-api
    ])
    def test_dense_form_unless_projection_saves_flops(self, d, n, k, projects):
        rng = np.random.default_rng(d)
        T, X, V = rng.normal(size=(d, k)), rng.normal(size=(d, n)), rng.normal(size=(d, 3))
        project, W = _span_projection(T, X)
        assert (W is not X) is projects
        assert (project(V) is not V) is projects


def test_normalize_equals_normalising_the_inputs_beforehand(noisy_world):
    # normalize=True on raw inputs gives the bytes of normalize=False on
    # features and embeddings that l2_normalize_columns scaled beforehand.
    data, _ = noisy_world
    _, run_cfg = noisy_setup(seed=0)
    unit = l2_normalize_columns
    pre = LabeledDataset(FeatureMatrix(unit(data.train.features.data)), data.train.labels,
                         data.split, EmbeddingMatrix(unit(data.embeddings.data),
                                                     data.embeddings.class_ids))
    runs = {}
    for normalize, train_set, X, K in ((True, data.train, data.test_features, data.embeddings),
                                       (False, pre, unit(data.test_features.data),
                                        pre.semantic)):
        model = train(train_set, replace(run_cfg, normalize=normalize, train_max_iter=2))
        K_u, K_s = K.subset(data.split.unseen), K.subset(data.split.seen)
        outputs = [model.f_s, model.f_tilde, model.k_tilde_s.data]
        for mode in (CZSR, GZSR):
            moded = with_config(model, mode=mode, test_max_iter=2)
            outputs.append(infer_inductive(moded, X, K_u, K_s).score_matrix)
            for prediction, prototypes in transductive_rounds(moded, X, K_u):
                outputs += [prediction.score_matrix, prototypes.data]
        runs[normalize] = [a.tobytes() for a in outputs]
    assert runs[True] == runs[False]


class TestInductive:
    def test_exact_world_recovers_all_unseen_labels(self, exact_world):
        data, model = exact_world
        K_u = data.embeddings.subset(data.split.unseen)
        pred = infer_inductive(model, data.test_features, K_u)
        assert pred.predicted_class == data.test_labels
        assert pred.candidate_ids == data.split.unseen
        assert pred.instance_ids == data.test_features.instance_ids

    def test_score_rule_is_inner_product_with_f_s(self, exact_world, centred_exact_model):
        data, _ = exact_world
        K_u = data.embeddings.subset(data.split.unseen)
        for model in (exact_world[1], centred_exact_model):
            pred = infer_inductive(model, data.test_features, K_u)
            X, _ = _prepare_features(data.test_features.data, model.config,
                                     model.feature_mean)
            expected = K_u.data.T @ (model.f_s.T @ X)
            assert np.array_equal(pred.score_matrix, expected)

    def test_argmax_tie_prefers_lower_candidate_index(self, exact_world):
        data, model = exact_world
        # Duplicate a candidate embedding: scores for the two copies are
        # bit-identical, so every win must go to the lower index.
        k = data.embeddings.column(data.split.unseen[2])
        K_dup = EmbeddingMatrix(
            np.stack([k, k], axis=1), ("first", "second")
        )
        pred = infer_inductive(model, data.test_features, K_dup)
        assert set(pred.predicted_class) == {"first"}

    def test_uniform_candidate_scaling_keeps_decisions(self, noisy_world):
        data, model = noisy_world
        K_u = data.embeddings.subset(data.split.unseen)
        base = infer_inductive(model, data.test_features, K_u)
        scaled = infer_inductive(
            model,
            data.test_features,
            EmbeddingMatrix(3.7 * K_u.data, K_u.class_ids),
        )
        assert base.predicted_class == scaled.predicted_class

    def test_single_candidate_wins_everywhere(self, noisy_world):
        data, model = noisy_world
        only = data.split.unseen[0]
        K_one = EmbeddingMatrix(
            data.embeddings.column(only)[:, None], (only,)
        )
        pred = infer_inductive(model, data.test_features, K_one)
        assert set(pred.predicted_class) == {only}

    def test_gzsr_includes_seen_candidates(self, noisy_world):
        data, model = noisy_world
        K_u = data.embeddings.subset(data.split.unseen)
        K_s = data.embeddings.subset(data.split.seen)
        pred = infer_inductive(
            with_config(model, mode=GZSR), data.test_features, K_u, K_seen=K_s
        )
        assert pred.candidate_ids == data.split.seen + data.split.unseen
        assert pred.score_matrix.shape[0] == data.config.k + data.config.l

    def test_gzsr_agrees_with_czsr_when_unseen_wins(self, noisy_world):
        # Whenever the generalised search picks an unseen class, the
        # restricted search must pick the same class: the unseen scores
        # are identical and the global winner is among them.
        data, model = noisy_world
        K_u = data.embeddings.subset(data.split.unseen)
        K_s = data.embeddings.subset(data.split.seen)
        g = infer_inductive(with_config(model, mode=GZSR), data.test_features, K_u, K_seen=K_s)
        c = infer_inductive(with_config(model, mode=CZSR), data.test_features, K_u)
        unseen = set(data.split.unseen)
        checked = 0
        for gz, cz in zip(g.predicted_class, c.predicted_class):
            if gz in unseen:
                assert gz == cz
                checked += 1
        assert checked > 0

    def test_gzsr_without_seen_embeddings_rejected(self, exact_world):
        data, model = exact_world
        K_u = data.embeddings.subset(data.split.unseen)
        with pytest.raises(ValidationError):
            infer_inductive(with_config(model, mode=GZSR), data.test_features, K_u)

    def test_embedding_dimension_mismatch(self, exact_world):
        data, model = exact_world
        with pytest.raises(DimensionMismatch):
            infer_inductive(
                model, data.test_features, np.zeros((data.config.p + 1, 3))
            )

    def test_empty_test_batch_rejected(self, exact_world):
        data, model = exact_world
        K_u = data.embeddings.subset(data.split.unseen)
        with pytest.raises(EmptyTestSet):
            infer_inductive(model, np.empty((data.train.features.d, 0)), K_u)

    def test_plain_array_gets_positional_instance_ids(self, exact_world):
        data, model = exact_world
        K_u = data.embeddings.subset(data.split.unseen)
        X = data.test_features.data[:, :3]
        pred = infer_inductive(model, X, K_u)
        assert len(pred.instance_ids) == 3
        assert len(set(pred.instance_ids)) == 3


class TestTransductive:
    def test_returns_prototypes_for_every_unseen_class(self, noisy_world):
        data, model = noisy_world
        K_u = data.embeddings.subset(data.split.unseen)
        pred, protos = infer_transductive(model, data.test_features, K_u)
        assert protos.class_ids == data.split.unseen
        assert protos.data.shape == (data.train.features.d, data.config.l)
        assert pred.candidate_ids == data.split.unseen

    def test_score_rule_uses_second_path_and_prototypes(self, noisy_world,
                                                        centred_noisy_model):
        data, _ = noisy_world
        K_u = data.embeddings.subset(data.split.unseen)
        for model in (noisy_world[1], centred_noisy_model):
            pred, protos = infer_transductive(model, data.test_features, K_u)
            X, _ = _prepare_features(data.test_features.data, model.config,
                                     model.feature_mean)
            expected = protos.data.T @ (model.f_tilde.T @ X)
            assert np.array_equal(pred.score_matrix, expected)

    def test_first_iteration_anchors_at_given_embeddings(self, noisy_world,
                                                         centred_noisy_model):
        # With one round the prototypes must come straight from the f_s
        # predictions searched around the raw unseen embeddings.
        data, _ = noisy_world
        K_u = data.embeddings.subset(data.split.unseen)
        for model in (noisy_world[1], centred_noisy_model):
            _, protos = infer_transductive(
                with_config(model, test_max_iter=1), data.test_features, K_u
            )
            X, _ = _prepare_features(data.test_features.data, model.config,
                                     model.feature_mean)
            preds_s = predict_semantic(model.f_s, X)
            for j, cid in enumerate(data.split.unseen):
                expected = knn_prototype(
                    K_u.data[:, j], preds_s, X, model.config.m
                )
                assert np.array_equal(protos.data[:, j], expected)

    def test_later_iterations_reanchor_at_prototypes(self, noisy_world, centred_noisy_model):
        data, _ = noisy_world
        K_u = data.embeddings.subset(data.split.unseen)
        for model in (noisy_world[1], centred_noisy_model):
            _, p1 = infer_transductive(with_config(model, test_max_iter=1),
                                       data.test_features, K_u)
            _, p2 = infer_transductive(with_config(model, test_max_iter=2),
                                       data.test_features, K_u)
            X, _ = _prepare_features(data.test_features.data, model.config,
                                     model.feature_mean)
            preds_t = predict_semantic(model.f_tilde, X)
            for j in range(data.config.l):
                expected = knn_prototype(
                    p1.data[:, j], preds_t, X, model.config.m
                )
                assert np.array_equal(p2.data[:, j], expected)

    def test_exact_world_keeps_perfect_accuracy(self, exact_world):
        data, model = exact_world
        K_u = data.embeddings.subset(data.split.unseen)
        pred, _ = infer_transductive(model, data.test_features, K_u)
        correct = np.mean(
            [p == t for p, t in zip(pred.predicted_class, data.test_labels)]
        )
        assert correct == 1.0

    def test_prototype_updates_shrink_over_iterations(self):
        # The refinement is contractive in practice: the move from
        # iteration 1 to 2 dominates the move from 2 to 3.
        hits = 0
        for seed in range(6):
            synth_cfg, run_cfg = noisy_setup(seed=seed)
            data = generate(synth_cfg)
            model = train(data.train, run_cfg)
            K_u = data.embeddings.subset(data.split.unseen)
            protos = [
                infer_transductive(
                    with_config(model, test_max_iter=i), data.test_features, K_u
                )[1].data
                for i in (1, 2, 3)
            ]
            c12 = np.linalg.norm(protos[1] - protos[0])
            c23 = np.linalg.norm(protos[2] - protos[1])
            hits += c12 > c23
        assert hits >= 5

    def test_batch_inference_is_deterministic(self, noisy_world):
        data, model = noisy_world
        K_u = data.embeddings.subset(data.split.unseen)
        a, pa = infer_transductive(model, data.test_features, K_u)
        b, pb = infer_transductive(model, data.test_features, K_u)
        assert np.array_equal(a.score_matrix, b.score_matrix)
        assert a.predicted_class == b.predicted_class
        assert np.array_equal(pa.data, pb.data)

    def test_m_covering_batch_collapses_prototypes_to_batch_mean(self):
        # With one iteration and m = batch size every prototype is the
        # global mean of the test features, scores tie across candidates,
        # and the tie-break sends every instance to the first class.
        synth_cfg, run_cfg = exact_recovery_setup(seed=4)
        data = generate(synth_cfg)
        n_t = data.test_features.n
        run_cfg = replace(run_cfg, m=n_t, test_max_iter=1)
        model = train(data.train, run_cfg)
        K_u = data.embeddings.subset(data.split.unseen)
        pred, protos = infer_transductive(model, data.test_features, K_u)
        mean = data.test_features.data.mean(axis=1)
        for j in range(protos.data.shape[1]):
            # bit-identical across classes (same selected set, same order)
            assert np.array_equal(protos.data[:, j], protos.data[:, 0])
            # and numerically the batch mean (summation order of the
            # direct mean can differ in the last bit)
            assert np.allclose(protos.data[:, j], mean, rtol=0, atol=1e-12)
        assert set(pred.predicted_class) == {data.split.unseen[0]}

    def test_gzsr_candidates_are_refined_seen_then_unseen(self, noisy_world):
        data, model = noisy_world
        K_u = data.embeddings.subset(data.split.unseen)
        pred, _ = infer_transductive(
            with_config(model, mode=GZSR), data.test_features, K_u
        )
        assert pred.candidate_ids == data.split.seen + data.split.unseen

    @pytest.mark.parametrize("mode", [CZSR, GZSR])
    def test_round_t_equals_t_iterations(self, noisy_world, mode):
        data, model = noisy_world
        K_u = data.embeddings.subset(data.split.unseen)
        rounds = list(transductive_rounds(with_config(model, mode=mode, test_max_iter=3),
                                          data.test_features, K_u))
        assert len(rounds) == 3
        for t, (pred, protos) in enumerate(rounds, start=1):
            ref, ref_protos = infer_transductive(
                with_config(model, mode=mode, test_max_iter=t), data.test_features, K_u)
            assert np.array_equal(pred.score_matrix, ref.score_matrix)
            assert pred.predicted_class == ref.predicted_class
            assert pred.candidate_ids == ref.candidate_ids
            assert np.array_equal(protos.data, ref_protos.data)
            assert protos.class_ids == ref_protos.class_ids
        # the rounds really refine: consecutive prototypes differ
        assert not np.array_equal(rounds[0][1].data, rounds[1][1].data)

    def test_zero_iterations_rejected(self, noisy_world):
        data, model = noisy_world
        K_u = data.embeddings.subset(data.split.unseen)
        with pytest.raises(ValidationError):
            infer_transductive(with_config(model, test_max_iter=0), data.test_features, K_u)


def _infer(kind, model, X, K_u, K_s=None):
    if kind == "inductive":
        return infer_inductive(model if K_s is None else with_config(model, mode=GZSR),
                               X, K_u, K_s)
    return infer_transductive(with_config(model, test_max_iter=1), X, K_u)


#: The error and the start of its message for each malformed plain-array input.
MALFORMED_INPUTS = {
    "features-1d": (ValidationError, "test feature matrix must be 2-D"),
    "features-nan": (ValidationError, "test feature matrix contains non-finite"),
    "features-empty": (EmptyTestSet, "no test instances"),
    "unseen-1d": (ValidationError, "unseen embedding matrix must be 2-D"),
    "unseen-nan": (ValidationError, "unseen embedding matrix contains non-finite"),
}


@pytest.mark.parametrize("kind", ["inductive", "transductive"])
@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_plain_array_inputs_are_refused_by_name(exact_world, kind, case):
    data, model = exact_world
    X = data.test_features.data.copy()
    K_u = data.embeddings.subset(data.split.unseen).data.copy()
    if case == "features-1d":
        X = X[:, 0]
    elif case == "features-nan":
        X[2, 3] = np.nan
    elif case == "features-empty":
        X = X[:, :0]
    elif case == "unseen-1d":
        K_u = K_u[:, 0]
    else:
        K_u[1, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        error, message = MALFORMED_INPUTS[case]
        with pytest.raises(error, match=f"^{message}"):
            _infer(kind, model, X, K_u)


def test_nan_in_plain_seen_embeddings_is_refused_by_name(exact_world):
    data, model = exact_world
    K_s = data.embeddings.subset(data.split.seen).data.copy()
    K_s[0, 2] = np.inf
    with pytest.raises(ValidationError, match="^seen embedding matrix contains non-finite"):
        _infer("inductive", model, data.test_features, data.embeddings.subset(data.split.unseen),
               K_s)


def test_domain_type_inputs_are_not_scanned_again(exact_world, monkeypatch):
    # FeatureMatrix and EmbeddingMatrix checked their values when built.
    import dmap.model

    data, model = exact_world
    scanned = []
    monkeypatch.setattr(dmap.model, "_require_finite", lambda a, what: scanned.append(what))
    K_u = data.embeddings.subset(data.split.unseen)
    _infer("inductive", model, data.test_features, K_u, data.embeddings.subset(data.split.seen))
    list(transductive_rounds(with_config(model, mode=GZSR, test_max_iter=2),
                             data.test_features, K_u))
    assert scanned == []
    _infer("inductive", model, data.test_features.data, K_u.data)
    assert scanned == ["unseen embedding matrix", "test feature matrix"]


class TestDefectConsequence:
    def test_planted_twins_are_indistinguishable_to_the_first_path(self):
        # Classes built to share their projection onto the seen span get
        # score columns that agree to rounding error, so no inductive
        # decision can separate them better than the tie-break.
        synth_cfg, run_cfg = defect_setup(seed=0)
        data = generate(synth_cfg)
        model = train(data.train, run_cfg)
        K_u = data.embeddings.subset(data.split.unseen)
        pred = infer_inductive(model, data.test_features, K_u)
        S = pred.score_matrix
        scale = np.abs(S).max()
        for t in range(synth_cfg.defect_pairs):
            a, b = 2 * t, 2 * t + 1
            assert np.abs(S[a] - S[b]).max() <= 1e-9 * scale


@settings(max_examples=20)
@given(st.integers(0, 10_000))
def test_knn_prototype_oracle_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 20))
    p = int(rng.integers(1, 4))
    m = int(rng.integers(1, n + 1))
    predictions = rng.integers(-3, 4, size=(p, n)).astype(np.float64)
    features = rng.integers(-3, 4, size=(2, n)).astype(np.float64)
    anchor = rng.integers(-3, 4, size=p).astype(np.float64)
    idx = knn_oracle_indices(anchor, predictions, m)
    assert np.array_equal(
        knn_prototype(anchor, predictions, features, m),
        features[:, idx].mean(axis=1),
    )


def _knn_case(kind: str, seed: int):
    """Anchors (dim x c), predictions (dim x n) and features (d x n)."""
    rng = np.random.default_rng(seed)
    c = 1 if kind == "single" else int(rng.integers(1, 6))
    n = int(rng.integers(1, 40))
    d = int(rng.integers(1, 5))
    if kind in ("grid", "single"):
        dim, span = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        predictions = rng.integers(-span, span + 1, size=(dim, n)).astype(np.float64)
        anchors = rng.integers(-span, span + 1, size=(dim, c)).astype(np.float64)
    elif kind == "duplicates":
        dim = int(rng.integers(1, 300))
        predictions = rng.normal(size=(dim, n))
        src, dst = rng.integers(0, n, size=(2, n // 2 + 1))
        predictions[:, dst] = predictions[:, src]
        # Some columns within rounding of a duplicate: near-ties.
        near = rng.integers(0, n, size=n // 4)
        predictions[:, near] += 1e-15 * rng.normal(size=(dim, near.size))
        anchors = predictions[:, rng.integers(0, n, size=c)] + rng.normal(size=(dim, c))
        anchors[:, 0] = predictions[:, 0]
    else:  # "width-one": well separated distances, so the band is one column
        dim = int(rng.choice([1, 2, 8, 9, 768]))
        anchors = rng.normal(size=(dim, c))
        offsets = rng.permutation(n) + 1.0
        direction = rng.normal(size=(dim, 1))
        predictions = anchors[:, :1] + direction / np.linalg.norm(direction) * offsets
    features = rng.normal(size=(d, n))
    return anchors, predictions, features


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["grid", "duplicates", "width-one", "single"]),
       st.sampled_from(["below", "equal", "beyond"]),
       st.integers(0, 10_000))
def test_batched_refinement_matches_stable_argsort_oracle(kind, m_case, seed):
    anchors, predictions, features = _knn_case(kind, seed)
    n = predictions.shape[1]
    m = {"below": 1 + seed % n, "equal": n, "beyond": n + 1 + seed % 3}[m_case]
    got = _refine_prototypes(anchors, predictions, features, m)
    for c in range(anchors.shape[1]):
        expected = stable_argsort_prototype(anchors[:, c], predictions, features, m)
        assert np.array_equal(got[:, c], expected)
    assert np.array_equal(knn_prototype(anchors[:, 0], predictions, features, m), got[:, 0])


@pytest.mark.parametrize("edit, error", [
    ("nan", "search keys"), ("overflow", "search keys"),
    ("anchor", "search-key error bounds"),  # finite keys, but |a|^2 overflows
])
def test_non_finite_search_keys_are_refused_by_refinement_only(edit, error):
    # knn_prototype keeps its handling of non-finite keys and widths (the
    # band takes them, so the reference distances decide); refinement,
    # which training and inference run, refuses them instead of warning.
    rng = np.random.default_rng(7)
    anchor, predictions, features = rng.normal(size=3), rng.normal(size=(3, 8)), rng.normal(size=(2, 8))
    if edit == "nan":
        predictions[1, 2] = np.nan
    elif edit == "overflow":
        predictions[:, 5] *= 1e200
    else:
        anchor[0] = 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        expected = stable_argsort_prototype(anchor, predictions, features, 4)
        assert np.array_equal(knn_prototype(anchor, predictions, features, 4), expected)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=f"^{error} "):
            _refine_prototypes(anchor[:, None], predictions, features, 4)
