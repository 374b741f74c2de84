"""Synthetic Elliptic-Bitcoin-like dataset generator.

The real Elliptic data set (https://www.kaggle.com/datasets/ellipticco/
elliptic-data-set) contains 165 anonymised features per Bitcoin transaction
and labels a minority of transactions "illicit" (~4.5k) versus "licit"
(~42k).  It cannot be downloaded in this offline environment, so this module
generates a synthetic stand-in with the properties the paper's experiments
actually exercise:

* **same shape** -- configurable number of features (default 165) and class
  imbalance (default ~9.7% positive, matching 4,545 / 46,564);
* **features of graded informativeness** -- the first features carry the most
  signal and later ones progressively less, so that *adding features
  improves attainable classification quality*, which is the behaviour behind
  Figures 9-10 (AUC rises with feature count);
* **non-linear class structure** -- the illicit class is drawn from a
  mixture of shifted clusters combined with a non-linear (quadratic
  interaction) decision surface, so that kernel methods with an appropriate
  bandwidth outperform overly rigid ones, and more training data keeps
  improving test metrics (the paper's headline trend);
* **nuisance noise features** -- a fraction of features is pure noise, which
  is what makes small-sample/high-feature configurations overfit (the
  paper's discussion of the 300-sample curves).

The generator is fully deterministic given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import make_rng
from ..exceptions import DataError

__all__ = ["DatasetSpec", "EllipticLikeDataset", "generate_elliptic_like"]


@dataclass(frozen=True)
class DatasetSpec:
    """Parameters of the synthetic Elliptic-like dataset.

    Attributes
    ----------
    num_samples:
        Total number of transactions generated.
    num_features:
        Feature dimension (the real data set has 165).
    positive_fraction:
        Fraction of "illicit" (label 1) samples.
    informative_fraction:
        Fraction of features that carry class signal; the rest are noise.
    cluster_count:
        Number of sub-clusters per class (transaction "behaviour modes").
    noise_scale:
        Standard deviation of the additive feature noise.
    seed:
        Seed of the deterministic generator.
    """

    num_samples: int = 2000
    num_features: int = 165
    positive_fraction: float = 0.0976
    informative_fraction: float = 0.6
    cluster_count: int = 3
    noise_scale: float = 0.6
    seed: int = 2024

    def __post_init__(self) -> None:
        if self.num_samples < 4:
            raise DataError("num_samples must be >= 4")
        if self.num_features < 1:
            raise DataError("num_features must be >= 1")
        if not (0.0 < self.positive_fraction < 1.0):
            raise DataError("positive_fraction must be in (0, 1)")
        if not (0.0 < self.informative_fraction <= 1.0):
            raise DataError("informative_fraction must be in (0, 1]")
        if self.cluster_count < 1:
            raise DataError("cluster_count must be >= 1")
        if self.noise_scale < 0:
            raise DataError("noise_scale must be >= 0")


@dataclass
class EllipticLikeDataset:
    """A generated dataset: features, labels and the generating spec."""

    features: np.ndarray
    labels: np.ndarray
    spec: DatasetSpec
    feature_importance: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        if self.labels.shape[0] != self.features.shape[0]:
            raise DataError("features and labels disagree on sample count")

    @property
    def num_samples(self) -> int:
        """Number of rows."""
        return int(self.features.shape[0])

    @property
    def num_features(self) -> int:
        """Number of columns."""
        return int(self.features.shape[1])

    @property
    def num_positive(self) -> int:
        """Number of illicit (label 1) samples."""
        return int(np.sum(self.labels == 1))

    @property
    def num_negative(self) -> int:
        """Number of licit (label 0) samples."""
        return int(np.sum(self.labels == 0))

    @property
    def class_balance(self) -> float:
        """Fraction of positive samples."""
        return self.num_positive / self.num_samples

    def subset(self, indices: np.ndarray) -> "EllipticLikeDataset":
        """Row subset preserving the spec and feature importance."""
        indices = np.asarray(indices, dtype=int)
        return EllipticLikeDataset(
            features=self.features[indices],
            labels=self.labels[indices],
            spec=self.spec,
            feature_importance=self.feature_importance,
        )


def generate_elliptic_like(spec: DatasetSpec | None = None) -> EllipticLikeDataset:
    """Generate a synthetic Elliptic-like dataset according to ``spec``.

    The construction:

    1. Assign labels with the configured imbalance.
    2. Pick per-class, per-cluster centroids in the informative subspace;
       illicit centroids are displaced along a random direction whose
       per-feature magnitude decays with feature index (graded
       informativeness).
    3. Add a quadratic interaction term that flips a band of samples near
       the linear boundary, making the optimal decision surface non-linear.
    4. Append pure-noise features and per-feature heavy-tailed scaling so
       the marginals resemble anonymised transaction aggregates.
    """
    if spec is None:
        spec = DatasetSpec()
    rng = make_rng(spec.seed)

    n, m = spec.num_samples, spec.num_features
    n_pos = max(1, int(round(spec.positive_fraction * n)))
    n_pos = min(n_pos, n - 1)
    labels = np.zeros(n, dtype=int)
    labels[:n_pos] = 1
    rng.shuffle(labels)

    n_informative = max(1, int(round(spec.informative_fraction * m)))

    # Graded informativeness: feature k carries signal ~ decay^k.
    decay = 0.985
    importance = decay ** np.arange(n_informative)

    # Class-separation direction, scaled by importance.
    direction = rng.normal(size=n_informative)
    direction /= np.linalg.norm(direction)
    separation = 1.8 * direction * importance

    # Cluster centroids per class ("behaviour modes" of transactions).
    centroids_licit = rng.normal(scale=0.8, size=(spec.cluster_count, n_informative))
    centroids_illicit = centroids_licit + separation[None, :] + rng.normal(
        scale=0.25, size=(spec.cluster_count, n_informative)
    )

    cluster_assignment = rng.integers(spec.cluster_count, size=n)
    informative = np.empty((n, n_informative))
    for i in range(n):
        base = (
            centroids_illicit[cluster_assignment[i]]
            if labels[i] == 1
            else centroids_licit[cluster_assignment[i]]
        )
        informative[i] = base + rng.normal(scale=spec.noise_scale, size=n_informative)

    # Non-linear structure: a quadratic cross-term between the two leading
    # informative features modulates the class-conditional mean, bending the
    # optimal decision boundary.
    if n_informative >= 2:
        cross = informative[:, 0] * informative[:, 1]
        bend = 0.6 * np.tanh(cross)
        informative[:, 0] += np.where(labels == 1, bend, -bend)

    # Noise features with heavy-tailed per-feature scales.
    n_noise = m - n_informative
    if n_noise > 0:
        noise_scales = np.abs(rng.standard_cauchy(size=n_noise)).clip(0.2, 5.0)
        noise = rng.normal(size=(n, n_noise)) * noise_scales[None, :]
        features = np.concatenate([informative, noise], axis=1)
    else:
        features = informative

    # Per-feature affine distortion mimicking anonymised aggregate features.
    shifts = rng.normal(scale=0.5, size=m)
    scales = np.exp(rng.normal(scale=0.3, size=m))
    features = features * scales[None, :] + shifts[None, :]

    full_importance = np.zeros(m)
    full_importance[:n_informative] = importance

    return EllipticLikeDataset(
        features=features,
        labels=labels,
        spec=spec,
        feature_importance=full_importance,
    )
