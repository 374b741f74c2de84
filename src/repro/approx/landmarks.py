"""Pluggable landmark selection for Nystrom low-rank approximation.

The Nystrom method replaces the full ``n x n`` Gram matrix with the columns
belonging to ``m << n`` *landmark* points, so which points become landmarks
decides how well the low-rank reconstruction captures the kernel's geometry.
Three standard policies are provided, all operating on the *scaled* feature
matrix (the same representation the feature-map circuit encodes), behind a
tiny string registry so the pipeline, model selection and benchmarks can
sweep strategies by name:

* ``"uniform"`` -- uniform sampling without replacement; the classical
  Nystrom baseline, unbiased and essentially free.
* ``"kmeans"`` -- Lloyd's k-means on the scaled features, with each centroid
  snapped to its nearest actual data point.  Landmarks must be *real* rows so
  their encoded MPS land in the engine's content-addressed state store and
  are reusable by every later cross-Gram and streaming transform.
* ``"greedy"`` -- farthest-point (k-center) traversal: each new landmark
  maximises the distance to the already-chosen set.  A deterministic,
  spread-out design that behaves like cheap leverage-score sampling on the
  smooth kernels used here.
* ``"ridge-leverage"`` -- sampling proportional to *ridge leverage scores*
  ``tau_i = [K (K + lam n I)^{-1}]_ii`` of a Gaussian proxy kernel on the
  scaled features (median-heuristic bandwidth).  Ridge leverage scores
  measure how much each point contributes to the kernel's effective degrees
  of freedom, so sampling by them concentrates landmarks where the spectrum
  actually lives -- the selector the online drift path uses to grow the
  landmark set from fresh traffic (Alaoui & Mahoney 2015; Musco & Musco
  2017).

Every selector returns *indices into X*, never synthetic points, for the
cache-reuse reason above.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List

import numpy as np

from ..config import make_rng
from ..exceptions import KernelError

__all__ = [
    "LandmarkSelector",
    "UniformLandmarkSelector",
    "KMeansLandmarkSelector",
    "GreedyLandmarkSelector",
    "RidgeLeverageLandmarkSelector",
    "register_landmark_selector",
    "get_landmark_selector",
    "available_landmark_strategies",
    "select_landmarks",
]


class LandmarkSelector(abc.ABC):
    """Strategy interface: pick ``num_landmarks`` row indices of ``X``."""

    name: str = "base"

    def __call__(
        self,
        X: np.ndarray,
        num_landmarks: int,
        seed: int | np.random.Generator | None = 0,
    ) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise KernelError(f"X must be 2-D, got shape {X.shape}")
        n = X.shape[0]
        if not (1 <= num_landmarks <= n):
            raise KernelError(
                f"num_landmarks must be in [1, {n}], got {num_landmarks}"
            )
        idx = self.select(X, num_landmarks, make_rng(seed))
        idx = np.asarray(idx, dtype=int)
        if idx.size != num_landmarks or np.unique(idx).size != num_landmarks:
            raise KernelError(
                f"selector {self.name!r} returned {idx.size} indices "
                f"({np.unique(idx).size} unique), expected {num_landmarks}"
            )
        if idx.min() < 0 or idx.max() >= n:
            raise KernelError(f"selector {self.name!r} returned out-of-range indices")
        return np.sort(idx)

    @abc.abstractmethod
    def select(
        self, X: np.ndarray, num_landmarks: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Return ``num_landmarks`` distinct row indices of ``X``."""


class UniformLandmarkSelector(LandmarkSelector):
    """Uniform sampling without replacement (classical Nystrom)."""

    name = "uniform"

    def select(
        self, X: np.ndarray, num_landmarks: int, rng: np.random.Generator
    ) -> np.ndarray:
        return rng.choice(X.shape[0], size=num_landmarks, replace=False)


class KMeansLandmarkSelector(LandmarkSelector):
    """Lloyd's k-means on the scaled features, centroids snapped to data rows.

    Parameters
    ----------
    max_iter:
        Lloyd iterations; the small feature dimensions used here converge in
        a handful of sweeps.
    """

    name = "kmeans"

    def __init__(self, max_iter: int = 25) -> None:
        if max_iter < 1:
            raise KernelError(f"max_iter must be >= 1, got {max_iter}")
        self.max_iter = max_iter

    def select(
        self, X: np.ndarray, num_landmarks: int, rng: np.random.Generator
    ) -> np.ndarray:
        n = X.shape[0]
        centroids = X[rng.choice(n, size=num_landmarks, replace=False)].copy()
        assign = np.zeros(n, dtype=int)
        for _ in range(self.max_iter):
            d2 = _sq_distances(X, centroids)
            new_assign = np.argmin(d2, axis=1)
            if np.array_equal(new_assign, assign) and _ > 0:
                break
            assign = new_assign
            for c in range(num_landmarks):
                members = X[assign == c]
                if members.shape[0] > 0:
                    centroids[c] = members.mean(axis=0)
                else:
                    # Re-seed an empty cluster at the point farthest from its
                    # current centroid so every cluster keeps one member.
                    centroids[c] = X[int(np.argmax(np.min(d2, axis=1)))]
        # Snap each centroid to its nearest distinct data row.
        chosen: List[int] = []
        taken = np.zeros(n, dtype=bool)
        d2 = _sq_distances(X, centroids)
        for c in range(num_landmarks):
            order = np.argsort(d2[:, c], kind="stable")
            for i in order:
                if not taken[i]:
                    chosen.append(int(i))
                    taken[i] = True
                    break
        return np.asarray(chosen, dtype=int)


class GreedyLandmarkSelector(LandmarkSelector):
    """Farthest-point (k-center) traversal: maximally spread landmarks.

    The first landmark is the point closest to the data mean (a deterministic
    anchor); each subsequent landmark maximises its distance to the chosen
    set.  Spread-out designs approximate leverage-score sampling for the
    smooth, rapidly-decaying spectra of the fidelity kernels used here while
    costing only ``O(n m)`` distance evaluations.
    """

    name = "greedy"

    def select(
        self, X: np.ndarray, num_landmarks: int, rng: np.random.Generator
    ) -> np.ndarray:
        mean = X.mean(axis=0, keepdims=True)
        first = int(np.argmin(_sq_distances(X, mean)[:, 0]))
        chosen = [first]
        min_d2 = _sq_distances(X, X[[first]])[:, 0]
        for _ in range(1, num_landmarks):
            nxt = int(np.argmax(min_d2))
            chosen.append(nxt)
            min_d2 = np.minimum(min_d2, _sq_distances(X, X[[nxt]])[:, 0])
        return np.asarray(chosen, dtype=int)


class RidgeLeverageLandmarkSelector(LandmarkSelector):
    """Sampling proportional to ridge leverage scores of a proxy kernel.

    The exact fidelity kernel is what the landmarks will approximate, but
    selectors deliberately stay quantum-free (they run before any encode),
    so the scores are computed on a **Gaussian proxy kernel** over the scaled
    features with the median-heuristic bandwidth -- the standard surrogate
    for smooth kernels whose spectra decay comparably.  For each candidate
    ``i`` the ridge leverage score

        tau_i = [K (K + lam n I)^{-1}]_ii

    is the marginal contribution of ``x_i`` to the kernel's effective
    dimension at regularisation ``lam``; sampling without replacement with
    probability proportional to ``tau`` yields landmark sets whose Nystrom
    reconstruction error is near-optimal for the retained rank.  Cost is one
    ``O(n^3)`` solve over the *candidate pool* -- fine for the drift path,
    which selects from a bounded window of recent traffic, not the full
    training set.

    Parameters
    ----------
    lam:
        Ridge regularisation (relative; the solve uses ``lam * n``).  Smaller
        values sharpen the scores toward the top of the spectrum.
    """

    name = "ridge-leverage"

    def __init__(self, lam: float = 1e-2) -> None:
        if lam <= 0:
            raise KernelError(f"lam must be positive, got {lam}")
        self.lam = float(lam)

    def leverage_scores(self, X: np.ndarray) -> np.ndarray:
        """Ridge leverage score per row of ``X`` (Gaussian proxy kernel)."""
        X = np.asarray(X, dtype=float)
        n = X.shape[0]
        d2 = _sq_distances(X, X)
        off_diag = d2[~np.eye(n, dtype=bool)]
        positive = off_diag[off_diag > 0]
        # Median heuristic; degenerate pools (all-identical rows) fall back
        # to a unit bandwidth, where every score is equal anyway.
        bandwidth = float(np.median(positive)) if positive.size else 1.0
        K = np.exp(-d2 / max(bandwidth, 1e-12))
        # diag of (K + lam n I)^{-1} K, which (by symmetry) equals the ridge
        # leverage diag of K (K + lam n I)^{-1}.
        scores = np.diagonal(np.linalg.solve(K + self.lam * n * np.eye(n), K))
        return np.clip(scores, 1e-12, None)

    def select(
        self, X: np.ndarray, num_landmarks: int, rng: np.random.Generator
    ) -> np.ndarray:
        scores = self.leverage_scores(X)
        probabilities = scores / scores.sum()
        return rng.choice(
            X.shape[0], size=num_landmarks, replace=False, p=probabilities
        )


def _sq_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, shape ``(len(A), len(B))``."""
    a2 = np.sum(A * A, axis=1)[:, None]
    b2 = np.sum(B * B, axis=1)[None, :]
    return np.maximum(a2 + b2 - 2.0 * (A @ B.T), 0.0)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_SELECTORS: Dict[str, Callable[[], LandmarkSelector]] = {}


def register_landmark_selector(
    name: str, factory: Callable[[], LandmarkSelector]
) -> None:
    """Register a selector factory under ``name`` (overwrites silently)."""
    _SELECTORS[name] = factory


def get_landmark_selector(name: str) -> LandmarkSelector:
    """Instantiate the selector registered under ``name``."""
    try:
        factory = _SELECTORS[name]
    except KeyError:
        raise KernelError(
            f"unknown landmark strategy {name!r}; "
            f"available: {sorted(_SELECTORS)}"
        ) from None
    return factory()


def available_landmark_strategies() -> List[str]:
    """Sorted names of every registered landmark strategy."""
    return sorted(_SELECTORS)


def select_landmarks(
    X: np.ndarray,
    num_landmarks: int,
    strategy: str = "uniform",
    seed: int | np.random.Generator | None = 0,
) -> np.ndarray:
    """One-call convenience: indices of ``num_landmarks`` rows of ``X``."""
    return get_landmark_selector(strategy)(X, num_landmarks, seed)


register_landmark_selector("uniform", UniformLandmarkSelector)
register_landmark_selector("kmeans", KMeansLandmarkSelector)
register_landmark_selector("greedy", GreedyLandmarkSelector)
register_landmark_selector("ridge-leverage", RidgeLeverageLandmarkSelector)
