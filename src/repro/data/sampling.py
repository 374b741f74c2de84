"""Balanced down-sampling and feature selection.

The paper's ML experiments (Figures 9-10, Tables II-III) down-select the
Elliptic data to a *balanced* sample of a given size ("data samples are down
selected and seeded to a specified dimension with balanced data") and use the
first ``m`` features for the ``m``-qubit encodings.  These helpers implement
that protocol deterministically.
"""

from __future__ import annotations

import numpy as np

from ..config import make_rng
from ..exceptions import DataError
from .elliptic import EllipticLikeDataset

__all__ = ["balanced_subsample", "select_features", "stratified_indices"]


def stratified_indices(
    labels: np.ndarray,
    per_class: int,
    seed: int | np.random.Generator | None = 0,
) -> np.ndarray:
    """Indices of ``per_class`` samples from each class, shuffled together."""
    labels = np.asarray(labels).ravel()
    rng = make_rng(seed)
    chosen = []
    for cls in np.unique(labels):
        cls_idx = np.where(labels == cls)[0]
        if cls_idx.size < per_class:
            raise DataError(
                f"class {cls} has only {cls_idx.size} samples, "
                f"cannot draw {per_class}"
            )
        chosen.append(rng.choice(cls_idx, size=per_class, replace=False))
    idx = np.concatenate(chosen)
    return rng.permutation(idx)


def balanced_subsample(
    dataset: EllipticLikeDataset,
    total_size: int,
    seed: int | np.random.Generator | None = 0,
) -> EllipticLikeDataset:
    """Class-balanced subset of ``total_size`` samples (half per class).

    Matches the paper's convention where a "data sample size" of ``N``
    contains ``N/2`` illicit and ``N/2`` licit entries.
    """
    if total_size < 2:
        raise DataError("total_size must be >= 2")
    if total_size % 2 != 0:
        raise DataError("total_size must be even for a balanced sample")
    per_class = total_size // 2
    idx = stratified_indices(dataset.labels, per_class, seed)
    return dataset.subset(idx)


def select_features(
    features: np.ndarray, num_features: int
) -> np.ndarray:
    """Keep the first ``num_features`` columns.

    The synthetic generator orders features by informativeness, so taking a
    prefix reproduces the paper's protocol of studying progressively larger
    feature counts (15, 50, 100, 165) with the smaller sets nested in the
    larger ones.
    """
    features = np.asarray(features)
    if features.ndim != 2:
        raise DataError("features must be 2-D")
    if not (1 <= num_features <= features.shape[1]):
        raise DataError(
            f"num_features must be in [1, {features.shape[1]}], got {num_features}"
        )
    return features[:, :num_features]
