"""Deterministic synthetic datasets with controllable inter-class
relationship consistency, noise, and semantic-space defects.

Construction
------------
* Class embeddings are unit-norm random columns.  The *seen* embeddings
  are additionally spread into a well-conditioned frame (orthonormal
  columns when ``k <= p``; a zero-sum unit-norm tight frame when
  ``k > p``).  A spread, balanced seen frame makes the seen Gram matrix
  a multiple of the identity, so the instance-level ridge scorer reduces
  exactly to cosine similarity against the true embeddings — random
  i.i.d. columns provably cannot offer that exactness (their Gram and
  column-sum terms bias the fitted bilinear form).
* Feature prototypes are the image of the embeddings under a random
  column-orthonormal map ``M`` (``d x p``).  Because ``M`` preserves
  inner products, ridge coefficients over the seen items are *identical*
  in feature and semantic space for the same regulariser — the two
  manifolds are exactly consistent when ``irc_distortion = 0``.
* ``irc_distortion`` shifts every unseen feature prototype by that
  amount along a random direction inside the span of the seen feature
  prototypes.  In-span shifts are exactly what the ridge coefficients
  can see, so the consistency measure decreases monotonically with the
  distortion scale; a shift orthogonal to the span would leave every
  coefficient unchanged and the measure constant.
* Each defect pair replaces the second unseen embedding by (shared
  projection onto span(K_s)) + (a distinct orthogonal residual), rescaled
  to unit norm — two classes no seen-trained linear map can separate.
* Instances are ``prototype + noise_sigma * standard normal``.

Reproducibility
---------------
All randomness flows single-pass from a PCG64 stream; Gaussians use an
explicit Box-Muller transform on PCG64 uniforms (documented and portable
rather than platform-native), so byte-identical datasets follow from
equal seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ClassSplit,
    EmbeddingMatrix,
    FeatureMatrix,
    LabeledDataset,
    check_field_types,
)
from .errors import InfeasibleConfig, ValidationError
from .model import DmapConfig

#: Alternating-projection iteration cap and exit tolerance for spreading
#: the seen embeddings.  Convergence is linear (rate ~0.7 per round), so
#: machine precision arrives within a few hundred rounds.
_SPREAD_ROUNDS = 2000
_SPREAD_TOL = 1e-14


class PortableRng:
    """Deterministic random stream: PCG64 uniforms, Box-Muller normals.

    ``numpy``'s PCG64 bit stream is stable across platforms and versions;
    uniform doubles are the documented 53-bit conversion.  Normals are
    produced here by the Box-Muller transform

        z0 = sqrt(-2 ln(1 - u1)) * cos(2 pi u2)
        z1 = sqrt(-2 ln(1 - u1)) * sin(2 pi u2)

    instead of the generator's native (unspecified) ziggurat sampler.
    """

    def __init__(self, seed: int):
        self._gen = np.random.Generator(np.random.PCG64(int(seed)))

    def uniform(self, *shape: int) -> np.ndarray:
        return self._gen.random(shape)

    def normal(self, *shape: int) -> np.ndarray:
        count = int(np.prod(shape)) if shape else 1
        pairs = (count + 1) // 2
        u1 = self._gen.random(pairs)
        u2 = self._gen.random(pairs)
        radius = np.sqrt(-2.0 * np.log1p(-u1))  # 1 - u1 in (0, 1], so finite
        angle = 2.0 * np.pi * u2
        z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:count]
        return z.reshape(shape)


@dataclass(frozen=True)
class SynthConfig:
    """Knobs of the synthetic world.

    ``n_per_class`` applies to the train side (seen classes) and the
    test side (unseen classes) alike.  ``irc_distortion = 0`` gives
    exactly consistent inter-class relationships; ``defect_pairs`` plants
    that many unseen pairs with coinciding projections onto span(K_s).
    """

    d: int
    p: int
    k: int
    l: int
    n_per_class: int
    noise_sigma: float = 0.0
    irc_distortion: float = 0.0
    defect_pairs: int = 0
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        for name in ("d", "p", "k", "l", "n_per_class"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be at least 1")
        if self.defect_pairs < 0:
            raise ValidationError("defect_pairs must be nonnegative")
        if self.defect_pairs > self.l // 2:
            raise ValidationError(
                f"defect_pairs={self.defect_pairs} needs {2 * self.defect_pairs} unseen "
                f"classes but l={self.l}"
            )
        if self.noise_sigma < 0 or self.irc_distortion < 0:
            raise ValidationError("noise_sigma and irc_distortion must be nonnegative")
        if self.p > self.d:
            raise InfeasibleConfig(
                f"exact consistency needs an injective embedding-to-feature map: p={self.p} > d={self.d}"
            )
        if self.defect_pairs > 0 and self.k >= self.p:
            raise InfeasibleConfig(
                f"defect pairs need span(K_s) to be a proper subspace: k={self.k} >= p={self.p}"
            )


@dataclass(frozen=True)
class SynthDataset:
    """Everything :func:`generate` produces."""

    train: LabeledDataset
    test_features: FeatureMatrix
    test_labels: tuple
    embeddings: EmbeddingMatrix
    config: SynthConfig

    @property
    def split(self) -> ClassSplit:
        return self.train.split


def _class_ids(prefix: str, count: int) -> tuple[str, ...]:
    width = max(2, len(str(count - 1)))
    return tuple(f"{prefix}{i:0{width}d}" for i in range(count))


def _spread_unit_columns(
    raw: np.ndarray,
    balanced: bool,
    rounds: int = _SPREAD_ROUNDS,
    tol: float = _SPREAD_TOL,
) -> np.ndarray:
    """Alternate projections toward a spread set of unit columns.

    Targets the nearest orthonormal set (``c <= p``) or unit-norm tight
    frame (``c > p``); with ``balanced`` the columns are also driven to
    zero sum.  The orthogonal polar factor used for the frame step is
    unique, so the result is deterministic in the input.  Iteration stops
    once the Gram (and, if requested, the column sum) meets ``tol``, so the
    structural identities downstream proofs rely on hold to machine
    precision.
    """
    p, c = raw.shape
    K = raw.copy()
    for _ in range(rounds):
        if balanced:
            K = K - K.mean(axis=1, keepdims=True)
        U, _, Vt = np.linalg.svd(K, full_matrices=False)
        K = U @ Vt
        if c > p:
            K = K * np.sqrt(c / p)
        K = K / np.linalg.norm(K, axis=0)
        if c > p:
            gram_dev = np.abs(K @ K.T - (c / p) * np.eye(p)).max()
        else:
            gram_dev = np.abs(K.T @ K - np.eye(c)).max()
        sum_dev = np.abs(K.mean(axis=1)).max() if balanced else 0.0
        if max(gram_dev, sum_dev) < tol:
            break
    return K


def _orthonormal_map(rng: PortableRng, d: int, p: int) -> np.ndarray:
    """Random ``d x p`` matrix with orthonormal columns (sign-fixed QR)."""
    Q, R = np.linalg.qr(rng.normal(d, p))
    return Q * np.sign(np.diag(R))


def _unit_columns(rng: PortableRng, p: int, count: int) -> np.ndarray:
    cols = rng.normal(p, count)
    return cols / np.linalg.norm(cols, axis=0)


def generate(config: SynthConfig) -> SynthDataset:
    """Build one deterministic dataset according to ``config``.

    Returns the labelled training side (seen classes only), unseen-class
    test features and labels, and the full embedding matrix over seen
    followed by unseen classes.
    """
    rng = PortableRng(config.seed)
    d, p, k, l = config.d, config.p, config.k, config.l
    npc = config.n_per_class

    seen_ids = _class_ids("s", k)
    unseen_ids = _class_ids("u", l)

    K_s = _spread_unit_columns(rng.normal(p, k), balanced=(k > p))
    K_u = _unit_columns(rng, p, l)

    for pair in range(config.defect_pairs):
        a, b = 2 * pair, 2 * pair + 1
        # Shared projection u; both members keep unit norm, so both carry
        # an orthogonal residual of norm sqrt(1 - ||u||^2) — the second
        # member simply gets a *different* residual direction.
        shared = K_s @ (K_s.T @ K_u[:, a])  # K_s columns are orthonormal here
        residual_norm = float(np.sqrt(max(1.0 - shared @ shared, 0.0)))
        raw = rng.normal(p)
        ortho = raw - K_s @ (K_s.T @ raw)
        ortho = ortho - K_s @ (K_s.T @ ortho)  # re-orthogonalise
        first_residual = K_u[:, a] - shared
        if p - k == 1 or np.linalg.norm(ortho) < 1e-12:
            direction = -first_residual / max(np.linalg.norm(first_residual),
                                              np.finfo(np.float64).tiny)
        else:
            direction = ortho / np.linalg.norm(ortho)
        K_u[:, b] = shared + residual_norm * direction

    M = _orthonormal_map(rng, d, p)
    prototypes = M @ np.concatenate([K_s, K_u], axis=1)

    if config.irc_distortion > 0:
        seen_protos = prototypes[:, :k].copy()
        for j in range(l):
            combo = seen_protos @ rng.normal(k)
            combo /= np.linalg.norm(combo)
            prototypes[:, k + j] += config.irc_distortion * combo

    train_X = np.repeat(prototypes[:, :k], npc, axis=1)
    train_X = train_X + config.noise_sigma * rng.normal(d, k * npc)
    train_labels = tuple(cid for cid in seen_ids for _ in range(npc))

    test_X = np.repeat(prototypes[:, k:], npc, axis=1)
    test_X = test_X + config.noise_sigma * rng.normal(d, l * npc)
    test_labels = tuple(cid for cid in unseen_ids for _ in range(npc))

    split = ClassSplit(seen=seen_ids, unseen=unseen_ids)
    embeddings = EmbeddingMatrix(
        np.concatenate([K_s, K_u], axis=1), seen_ids + unseen_ids
    )
    train = LabeledDataset(
        features=FeatureMatrix(train_X, tuple(f"tr{i:06d}" for i in range(k * npc))),
        labels=train_labels,
        split=split,
        semantic=embeddings,
    )
    test_features = FeatureMatrix(test_X, tuple(f"te{i:06d}" for i in range(l * npc)))
    return SynthDataset(
        train=train,
        test_features=test_features,
        test_labels=test_labels,
        embeddings=embeddings,
        config=config,
    )


def exact_recovery_setup(seed: int = 0) -> tuple[SynthConfig, DmapConfig]:
    """Noise-free, exactly consistent world plus near-zero regularisers.

    On these datasets the learned map sends every unseen feature
    prototype to a fixed multiple of its embedding, so inductive
    classification over unseen candidates is perfect.
    """
    synth = SynthConfig(
        d=30, p=10, k=15, l=5, n_per_class=10,
        noise_sigma=0.0, irc_distortion=0.0, defect_pairs=0, seed=seed,
    )
    dmap = DmapConfig(
        m=10, lam=1e-6, gamma=1e-10, eta=1e-10,
        train_max_iter=2, test_max_iter=2, convergence_tol=1e-4,
    )
    return synth, dmap


def noisy_setup(seed: int = 0) -> tuple[SynthConfig, DmapConfig]:
    """Heavily noised, distorted world where transduction pays off.

    Instance noise swamps the unit-scale prototypes (sigma 0.5 per
    dimension) and every unseen prototype is shifted half a unit inside
    the seen span, so the given embeddings misplace the true clusters;
    batch-built prototypes recover part of that shift.
    """
    synth = SynthConfig(
        d=30, p=10, k=15, l=5, n_per_class=200,
        noise_sigma=0.5, irc_distortion=0.5, defect_pairs=0, seed=seed,
    )
    dmap = DmapConfig(
        m=100, lam=1e-4, gamma=1.0, eta=1.0,
        train_max_iter=0, test_max_iter=3, convergence_tol=1e-4,
    )
    return synth, dmap


def defect_setup(seed: int = 0) -> tuple[SynthConfig, DmapConfig]:
    """Noise-free world with two planted indistinguishable unseen pairs."""
    synth = SynthConfig(
        d=16, p=12, k=6, l=6, n_per_class=10,
        noise_sigma=0.0, irc_distortion=0.0, defect_pairs=2, seed=seed,
    )
    dmap = DmapConfig(
        m=10, lam=1e-4, gamma=1e-6, eta=1e-6,
        train_max_iter=2, test_max_iter=2, convergence_tol=1e-4,
    )
    return synth, dmap
