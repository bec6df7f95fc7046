"""Tests for the synthetic dataset generator: determinism, the structural
guarantees of each construction knob, and the portable random stream.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dmap.consistency import consistency_report, preinspect
from dmap.core import class_mean_prototypes
from dmap.errors import InfeasibleConfig, ValidationError
from dmap.synth import (
    PortableRng,
    SynthConfig,
    defect_setup,
    exact_recovery_setup,
    generate,
    noisy_setup,
)


def dataset_cm_and_gap(ds, lam):
    """Consistency measure and gap between the two relationship matrices."""
    X_all = np.concatenate([ds.train.features.data, ds.test_features.data], axis=1)
    labels = tuple(ds.train.labels) + tuple(ds.test_labels)
    return consistency_report(X_all, labels, ds.split, ds.embeddings, lam)


class TestPortableRng:
    def test_same_seed_same_stream(self):
        a, b = PortableRng(7), PortableRng(7)
        assert np.array_equal(a.uniform(100), b.uniform(100))
        assert np.array_equal(a.normal(3, 5), b.normal(3, 5))

    def test_different_seeds_differ(self):
        assert not np.array_equal(PortableRng(1).uniform(50), PortableRng(2).uniform(50))

    def test_uniform_range_and_shape(self):
        u = PortableRng(0).uniform(4, 6)
        assert u.shape == (4, 6)
        assert np.all((u >= 0.0) & (u < 1.0))

    def test_normals_follow_documented_transform(self):
        # Reproduce the documented Box-Muller construction directly from
        # the underlying PCG64 uniforms and demand bitwise agreement.
        seed, count = 31, 9
        gen = np.random.Generator(np.random.PCG64(seed))
        pairs = (count + 1) // 2
        u1, u2 = gen.random(pairs), gen.random(pairs)
        radius = np.sqrt(-2.0 * np.log1p(-u1))
        angle = 2.0 * np.pi * u2
        expected = np.concatenate(
            [radius * np.cos(angle), radius * np.sin(angle)]
        )[:count]
        assert np.array_equal(PortableRng(seed).normal(count), expected)

    def test_normal_moments(self):
        z = PortableRng(123).normal(20_000)
        assert abs(z.mean()) < 0.03
        assert abs(z.std() - 1.0) < 0.03

    def test_normal_odd_and_multidim_shapes(self):
        assert PortableRng(5).normal(7).shape == (7,)
        assert PortableRng(5).normal(2, 3, 4).shape == (2, 3, 4)

    def test_normals_are_finite_even_at_stream_extremes(self):
        # log1p(-u) with u in [0, 1) keeps the radius finite for u = 0.
        z = PortableRng(999).normal(100_000)
        assert np.all(np.isfinite(z))


class TestSynthConfigValidation:
    def test_valid_config_passes(self):
        SynthConfig(d=8, p=4, k=5, l=3, n_per_class=2)

    @pytest.mark.parametrize("field", ["d", "p", "k", "l", "n_per_class"])
    def test_positive_sizes_required(self, field):
        kwargs = dict(d=8, p=4, k=5, l=3, n_per_class=2)
        kwargs[field] = 0
        with pytest.raises(ValidationError):
            SynthConfig(**kwargs)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValidationError):
            SynthConfig(d=8, p=4, k=5, l=3, n_per_class=2, noise_sigma=-0.1)

    def test_negative_distortion_rejected(self):
        with pytest.raises(ValidationError):
            SynthConfig(d=8, p=4, k=5, l=3, n_per_class=2, irc_distortion=-1.0)

    def test_embedding_dim_exceeding_feature_dim_is_infeasible(self):
        with pytest.raises(InfeasibleConfig):
            SynthConfig(d=4, p=8, k=5, l=3, n_per_class=2)

    def test_defects_need_room_outside_the_seen_span(self):
        with pytest.raises(InfeasibleConfig):
            SynthConfig(d=8, p=4, k=5, l=4, n_per_class=2, defect_pairs=1)

    def test_too_many_defect_pairs_rejected(self):
        with pytest.raises(ValidationError):
            SynthConfig(d=16, p=8, k=4, l=3, n_per_class=2, defect_pairs=2)

    def test_negative_defect_pairs_rejected(self):
        with pytest.raises(ValidationError):
            SynthConfig(d=16, p=8, k=4, l=3, n_per_class=2, defect_pairs=-1)

    @pytest.mark.parametrize("field, value", [
        ("d", "8"), ("d", 8.0), ("k", True), ("noise_sigma", "0.1"), ("seed", None),
    ])
    def test_values_of_wrong_type_rejected(self, field, value):
        kwargs = dict(d=8, p=4, k=5, l=3, n_per_class=2)
        kwargs[field] = value
        with pytest.raises(ValidationError, match=field):
            SynthConfig(**kwargs)


class TestDeterminism:
    def test_equal_seeds_give_bitwise_equal_worlds(self):
        cfg = SynthConfig(d=12, p=6, k=8, l=4, n_per_class=5,
                          noise_sigma=0.3, irc_distortion=0.7, seed=21)
        a, b = generate(cfg), generate(cfg)
        assert np.array_equal(a.train.features.data, b.train.features.data)
        assert np.array_equal(a.test_features.data, b.test_features.data)
        assert np.array_equal(a.embeddings.data, b.embeddings.data)
        assert a.train.labels == b.train.labels
        assert a.test_labels == b.test_labels

    def test_different_seeds_give_different_worlds(self):
        base = dict(d=12, p=6, k=8, l=4, n_per_class=5, noise_sigma=0.3)
        a = generate(SynthConfig(seed=1, **base))
        b = generate(SynthConfig(seed=2, **base))
        assert not np.array_equal(a.train.features.data, b.train.features.data)


class TestShapesAndLayout:
    def test_counts_ids_and_label_blocks(self):
        cfg = SynthConfig(d=9, p=5, k=6, l=3, n_per_class=4, seed=2)
        ds = generate(cfg)
        assert ds.train.features.data.shape == (9, 24)
        assert ds.test_features.data.shape == (9, 12)
        assert ds.embeddings.data.shape == (5, 9)
        assert ds.split.seen == tuple(f"s{i:02d}" for i in range(6))
        assert ds.split.unseen == tuple(f"u{i:02d}" for i in range(3))
        assert ds.embeddings.class_ids == ds.split.seen + ds.split.unseen
        # labels come in contiguous per-class blocks of n_per_class
        assert ds.train.labels == tuple(
            cid for cid in ds.split.seen for _ in range(4)
        )
        assert ds.test_labels == tuple(
            cid for cid in ds.split.unseen for _ in range(4)
        )
        assert len(set(ds.train.features.instance_ids)) == 24
        assert len(set(ds.test_features.instance_ids)) == 12

    def test_noise_free_instances_sit_on_their_prototype(self):
        cfg = SynthConfig(d=9, p=5, k=6, l=3, n_per_class=4, seed=3)
        ds = generate(cfg)
        X = ds.train.features.data
        for i in range(6):
            block = X[:, 4 * i : 4 * (i + 1)]
            assert np.array_equal(block, np.repeat(block[:, :1], 4, axis=1))

    def test_noise_spreads_instances(self):
        cfg = SynthConfig(d=9, p=5, k=6, l=3, n_per_class=4,
                          noise_sigma=0.2, seed=3)
        ds = generate(cfg)
        X = ds.train.features.data
        assert not np.array_equal(X[:, 0], X[:, 1])


class TestEmbeddingGeometry:
    def test_all_embeddings_are_unit_norm(self):
        for cfg in (
            SynthConfig(d=20, p=8, k=12, l=5, n_per_class=2, seed=4),
            SynthConfig(d=20, p=12, k=6, l=6, n_per_class=2,
                        defect_pairs=3, seed=4),
        ):
            K = generate(cfg).embeddings.data
            assert np.allclose(np.linalg.norm(K, axis=0), 1.0, atol=1e-9)

    def test_overcomplete_seen_frame_is_tight_and_balanced(self):
        cfg = SynthConfig(d=20, p=8, k=12, l=5, n_per_class=2, seed=5)
        ds = generate(cfg)
        K_s = ds.embeddings.subset(ds.split.seen).data
        assert np.abs(K_s @ K_s.T - (12 / 8) * np.eye(8)).max() < 1e-12
        assert np.abs(K_s.sum(axis=1)).max() < 1e-11

    def test_undercomplete_seen_frame_is_orthonormal(self):
        cfg = SynthConfig(d=20, p=12, k=6, l=6, n_per_class=2, seed=5)
        ds = generate(cfg)
        K_s = ds.embeddings.subset(ds.split.seen).data
        assert np.abs(K_s.T @ K_s - np.eye(6)).max() < 1e-12

    def test_feature_prototypes_preserve_embedding_inner_products(self):
        # Noise- and distortion-free prototypes are an isometric image of
        # the embeddings, which is the mechanism behind exact consistency.
        cfg = SynthConfig(d=20, p=8, k=12, l=5, n_per_class=1, seed=6)
        ds = generate(cfg)
        K = ds.embeddings.data
        labels = tuple(ds.train.labels) + tuple(ds.test_labels)
        X_all = np.concatenate(
            [ds.train.features.data, ds.test_features.data], axis=1
        )
        P = class_mean_prototypes(
            X_all, labels, ds.split.seen + ds.split.unseen
        ).data
        assert np.allclose(P.T @ P, K.T @ K, atol=1e-10)


class TestConsistencyKnob:
    def test_exact_world_is_exactly_consistent(self):
        synth_cfg, run_cfg = exact_recovery_setup(seed=11)
        ds = generate(synth_cfg)
        cm, gap = dataset_cm_and_gap(ds, run_cfg.lam)
        assert gap <= 1e-8
        assert cm >= 1.0 - 1e-6

    def test_distortion_decreases_consistency(self):
        base = dict(d=30, p=10, k=15, l=5, n_per_class=10, seed=8)
        lam = 1e-6
        cms = []
        for dist in (0.0, 0.5, 1.0, 2.0):
            ds = generate(SynthConfig(irc_distortion=dist, **base))
            cms.append(dataset_cm_and_gap(ds, lam)[0])
        assert all(a >= b for a, b in zip(cms, cms[1:]))
        assert cms[0] > cms[-1]

    def test_distortion_shifts_only_unseen_prototypes(self):
        base = dict(d=12, p=6, k=8, l=4, n_per_class=3, seed=9)
        clean = generate(SynthConfig(irc_distortion=0.0, **base))
        bent = generate(SynthConfig(irc_distortion=1.5, **base))
        assert np.array_equal(
            clean.train.features.data, bent.train.features.data
        )
        assert not np.array_equal(
            clean.test_features.data, bent.test_features.data
        )

    def test_distortion_magnitude_matches_the_knob(self):
        base = dict(d=12, p=6, k=8, l=4, n_per_class=1, seed=9)
        clean = generate(SynthConfig(irc_distortion=0.0, **base))
        bent = generate(SynthConfig(irc_distortion=1.5, **base))
        shift = bent.test_features.data - clean.test_features.data
        assert np.allclose(np.linalg.norm(shift, axis=0), 1.5, atol=1e-9)


class TestDefectKnob:
    def test_planted_pairs_share_their_seen_span_projection(self):
        cfg = SynthConfig(d=16, p=12, k=6, l=6, n_per_class=1,
                          defect_pairs=2, seed=10)
        ds = generate(cfg)
        K_s = ds.embeddings.subset(ds.split.seen).data
        K_u = ds.embeddings.subset(ds.split.unseen).data
        for t in range(2):
            a, b = 2 * t, 2 * t + 1
            proj_a = K_s @ (K_s.T @ K_u[:, a])
            proj_b = K_s @ (K_s.T @ K_u[:, b])
            assert np.linalg.norm(proj_a - proj_b) < 1e-12
            # the raw embeddings themselves still differ
            assert np.linalg.norm(K_u[:, a] - K_u[:, b]) > 0.1

    def test_preinspection_flags_exactly_the_planted_pairs(self):
        synth_cfg, _ = defect_setup(seed=12)
        ds = generate(synth_cfg)
        report = preinspect(
            ds.embeddings.subset(ds.split.seen),
            ds.embeddings.subset(ds.split.unseen),
            epsilon=1e-9,
        )
        flagged = {(a, b) for a, b, _ in report.flagged_pairs}
        assert flagged == {
            (ds.split.unseen[0], ds.split.unseen[1]),
            (ds.split.unseen[2], ds.split.unseen[3]),
        }

    def test_unplanted_worlds_have_no_defects(self):
        synth_cfg, _ = exact_recovery_setup(seed=13)
        ds = generate(synth_cfg)
        report = preinspect(
            ds.embeddings.subset(ds.split.seen),
            ds.embeddings.subset(ds.split.unseen),
            epsilon=1e-9,
        )
        assert report.flagged_pairs == ()


class TestPresets:
    def test_exact_recovery_preset_values(self):
        synth_cfg, run_cfg = exact_recovery_setup(seed=17)
        assert synth_cfg.noise_sigma == 0.0
        assert synth_cfg.irc_distortion == 0.0
        assert synth_cfg.defect_pairs == 0
        assert synth_cfg.seed == 17
        assert synth_cfg.k > synth_cfg.p  # overcomplete: tight-frame regime
        assert run_cfg.gamma <= 1e-8 and run_cfg.eta <= 1e-8

    def test_noisy_preset_values(self):
        synth_cfg, run_cfg = noisy_setup(seed=17)
        assert synth_cfg.noise_sigma > 0
        assert synth_cfg.irc_distortion > 0
        assert run_cfg.train_max_iter == 0
        assert run_cfg.test_max_iter >= 3

    def test_defect_preset_values(self):
        synth_cfg, run_cfg = defect_setup(seed=17)
        assert synth_cfg.defect_pairs == 2
        assert synth_cfg.k < synth_cfg.p
        assert synth_cfg.noise_sigma == 0.0


@given(st.integers(0, 10_000))
def test_generate_never_produces_nonfinite_values(seed):
    cfg = SynthConfig(d=6, p=3, k=4, l=2, n_per_class=2,
                      noise_sigma=0.1, irc_distortion=0.2, seed=seed)
    ds = generate(cfg)
    assert np.all(np.isfinite(ds.train.features.data))
    assert np.all(np.isfinite(ds.test_features.data))
    assert np.all(np.isfinite(ds.embeddings.data))
