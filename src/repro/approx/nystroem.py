"""Nystrom low-rank approximation of the quantum fidelity kernel.

The exact workflow evaluates ``n (n - 1) / 2`` MPS overlaps for a training
Gram matrix -- the quadratic wall that caps every benchmark at a few thousand
samples.  The Nystrom method needs only the kernel columns of ``m << n``
landmark points:

    K  ~=  K_nm  K_mm^+  K_mn

which factorises as an *explicit feature map*

    Phi = K_nm U_r diag(lambda_r)^{-1/2}          (n x r,  r <= m)

where ``K_mm = U diag(lambda) U^T`` is the (jittered) eigendecomposition of
the landmark Gram matrix.  Training then happens in ``Phi``-space with a
primal linear SVM (:mod:`repro.approx.linear_svc`) in ``O(n m^2)`` instead of
``O(n^2)``-``O(n^3)``, and classifying a new point costs ``m`` overlaps
against the *cached* landmark states instead of ``n`` against the full
training set (:mod:`repro.approx.streaming`).

All engine work goes through :class:`~repro.engine.KernelEngine` -- ``gram``
over the landmarks, ``cross`` for the ``n x m`` block and ``kernel_rows``
per streaming transform -- so the landmark states are encoded once into the
engine's :class:`~repro.engine.StateStore`.  The ``K_nm`` block runs as
**one padded block sweep** over a :class:`~repro.engine.StackedStateBlock`
of the landmarks, byte-identical to the chunked pair sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..engine import EngineResult, KernelEngine, StackedStateBlock, rowwise_matmul
from ..exceptions import KernelError
from ..mps import MPS
from .landmarks import select_landmarks

__all__ = ["NystroemConfig", "NystroemReport", "NystroemFeatureMap"]


@dataclass(frozen=True)
class NystroemConfig:
    """Hyper-parameters of one Nystrom approximation.

    Parameters
    ----------
    num_landmarks:
        Number of landmark points ``m``; the engine evaluates at most
        ``n m + m (m - 1) / 2`` overlap pairs during :meth:`fit` instead of
        the exact path's ``n (n - 1) / 2``.
    strategy:
        Landmark selection policy by registry name
        (:func:`repro.approx.landmarks.select_landmarks`).
    seed:
        Seed for the (possibly randomised) selector.
    jitter:
        Diagonal regularisation added to ``K_mm`` before the
        eigendecomposition, guarding against near-singular landmark Grams.
    rank:
        Optional spectral truncation: keep only the top-``rank`` eigenpairs
        of ``K_mm``.  ``None`` keeps every eigenvalue above ``eigen_tol``.
    eigen_tol:
        Eigenvalues at or below this threshold are dropped (they contribute
        only noise amplification through the inverse square root).
    """

    num_landmarks: int
    strategy: str = "uniform"
    seed: int = 0
    jitter: float = 1e-10
    rank: Optional[int] = None
    eigen_tol: float = 1e-12

    def __post_init__(self) -> None:
        if self.num_landmarks < 1:
            raise KernelError(
                f"num_landmarks must be >= 1, got {self.num_landmarks}"
            )
        if self.jitter < 0:
            raise KernelError(f"jitter must be >= 0, got {self.jitter}")
        if self.rank is not None and self.rank < 1:
            raise KernelError(f"rank must be >= 1 or None, got {self.rank}")
        if self.eigen_tol < 0:
            raise KernelError(f"eigen_tol must be >= 0, got {self.eigen_tol}")

    def to_dict(self) -> dict:
        """JSON-friendly representation for benchmark artifacts."""
        return {
            "num_landmarks": self.num_landmarks,
            "strategy": self.strategy,
            "seed": self.seed,
            "jitter": self.jitter,
            "rank": self.rank,
            "eigen_tol": self.eigen_tol,
        }


@dataclass
class NystroemReport:
    """Cost accounting of a fitted (and possibly streaming) feature map.

    ``num_pair_evaluations`` counts overlap jobs issued through the engine;
    the fit contribution is bounded by ``n m + m^2`` by construction, which
    is the invariant the acceptance benchmark asserts.
    """

    num_landmarks: int = 0
    spectral_rank: int = 0
    num_pair_evaluations: int = 0
    fit_pair_evaluations: int = 0
    transform_pair_evaluations: int = 0
    num_simulations: int = 0
    simulation_time_s: float = 0.0
    inner_product_time_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0

    def absorb(self, result: EngineResult, transform: bool = False) -> None:
        """Accumulate one engine result into the running totals."""
        self.num_pair_evaluations += result.num_inner_products
        if transform:
            self.transform_pair_evaluations += result.num_inner_products
        else:
            self.fit_pair_evaluations += result.num_inner_products
        self.num_simulations += result.num_simulations
        self.simulation_time_s += result.simulation_time_s
        self.inner_product_time_s += result.inner_product_time_s
        self.cache_hits += result.cache_hits
        self.cache_misses += result.cache_misses

    def to_dict(self) -> Dict[str, float]:
        """JSON-friendly representation for benchmark artifacts."""
        return {
            "num_landmarks": self.num_landmarks,
            "spectral_rank": self.spectral_rank,
            "num_pair_evaluations": self.num_pair_evaluations,
            "fit_pair_evaluations": self.fit_pair_evaluations,
            "transform_pair_evaluations": self.transform_pair_evaluations,
            "num_simulations": self.num_simulations,
            "simulation_time_s": self.simulation_time_s,
            "inner_product_time_s": self.inner_product_time_s,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }


class NystroemFeatureMap:
    """Explicit low-rank feature map ``Phi = K_nm K_mm^{-1/2}``.

    Parameters
    ----------
    engine:
        The :class:`~repro.engine.KernelEngine` performing every encode and
        overlap.  An engine with its state store enabled caches the landmark
        states once, making streaming transforms simulation-free for repeat
        queries.
    config:
        The :class:`NystroemConfig` hyper-parameters.

    Attributes (after :meth:`fit`)
    ------------------------------
    landmark_indices_:
        Row indices of the chosen landmarks in the fitted ``X``.
    landmark_rows_ / landmark_states_:
        The landmark feature rows and their encoded MPS (reused by every
        transform).
    normalization_:
        The ``m x r`` mapping ``U_r diag(lambda_r)^{-1/2}``.
    rank_:
        Retained spectral rank ``r``.
    train_features_:
        ``Phi`` of the fitted data (``n x r``), kept because ``K_nm`` is
        computed during fit anyway.
    """

    def __init__(self, engine: KernelEngine, config: NystroemConfig) -> None:
        self.engine = engine
        self.config = config
        self.report = NystroemReport(num_landmarks=config.num_landmarks)

        self.landmark_indices_: np.ndarray | None = None
        self.landmark_rows_: np.ndarray | None = None
        self.landmark_states_: List[MPS] = []
        self.landmark_block_: StackedStateBlock | None = None
        self.normalization_: np.ndarray | None = None
        self.rank_: int = 0
        self.train_features_: np.ndarray | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_attached(
        cls,
        engine: KernelEngine,
        landmark_states: List[MPS],
        normalization: np.ndarray,
        config: NystroemConfig | None = None,
    ) -> "NystroemFeatureMap":
        """Rebuild a *fitted* map from shipped parts, without re-fitting.

        Serving replicas receive the landmark states and the ``m x r``
        normalisation through a serialised payload rather than by running
        :meth:`fit`; this constructor wires them into a map whose
        :meth:`transform` / :meth:`project_kernel_rows` paths are exactly the
        ones a locally fitted map uses, so an attached replica's features are
        bit-identical to the fitting process's.
        """
        if not landmark_states:
            raise KernelError("an attached feature map needs at least one landmark")
        normalization = np.ascontiguousarray(np.asarray(normalization, dtype=float))
        if normalization.ndim != 2 or normalization.shape[0] != len(landmark_states):
            raise KernelError(
                f"normalization shape {normalization.shape} does not match "
                f"{len(landmark_states)} landmark states"
            )
        if config is None:
            config = NystroemConfig(num_landmarks=len(landmark_states))
        elif config.num_landmarks != len(landmark_states):
            raise KernelError(
                f"config expects {config.num_landmarks} landmarks but "
                f"{len(landmark_states)} states were attached"
            )
        fmap = cls(engine, config)
        fmap.landmark_states_ = list(landmark_states)
        fmap.landmark_block_ = StackedStateBlock(fmap.landmark_states_)
        fmap.normalization_ = normalization
        fmap.rank_ = int(normalization.shape[1])
        fmap.report.spectral_rank = fmap.rank_
        return fmap

    @property
    def is_fitted(self) -> bool:
        """Whether the map holds fitted parts (via :meth:`fit` or attach)."""
        return self.normalization_ is not None

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise KernelError("Nystrom feature map is not fitted; call fit() first")

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray) -> "NystroemFeatureMap":
        """Select landmarks, build ``K_mm`` and ``K_nm``, factorise.

        ``X`` must already be scaled to the feature map's interval.  Issues
        exactly ``m (m - 1) / 2`` Gram pairs plus ``n m`` cross-block pairs
        through the engine.
        """
        X = self.engine.validate_features(X)
        n = X.shape[0]
        m = self.config.num_landmarks
        if m > n:
            raise KernelError(
                f"num_landmarks ({m}) exceeds the number of samples ({n})"
            )

        idx = select_landmarks(
            X, m, strategy=self.config.strategy, seed=self.config.seed
        )
        self.landmark_indices_ = idx
        self.landmark_rows_ = X[idx].copy()

        gram_result = self.engine.gram(self.landmark_rows_)
        self.report.absorb(gram_result)
        K_mm = gram_result.matrix
        self.landmark_states_ = list(gram_result.states)
        # The Gram's stacked landmark tensors: every streaming transform
        # sweeps against this block with zero per-pair stacking.
        self.landmark_block_ = gram_result.block

        cross_result = self.engine.cross(
            X, self.landmark_states_, block=self.landmark_block_
        )
        self.report.absorb(cross_result)
        K_nm = cross_result.matrix

        self.normalization_ = self._factorise(K_mm)
        self.train_features_ = K_nm @ self.normalization_
        return self

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        """Fit on ``X`` and return its feature matrix ``Phi``."""
        self.fit(X)
        assert self.train_features_ is not None
        return self.train_features_

    def fit_with_landmarks(
        self, X: np.ndarray, landmark_rows: np.ndarray
    ) -> "NystroemFeatureMap":
        """Fit with an explicitly supplied landmark set, skipping selection.

        The online drift path grows the landmark set from serving traffic
        (rows whose reconstruction error exceeded a bound) and refits around
        the grown set; those landmarks are decided by the controller, not a
        selector over ``X``.  Everything after selection is identical to
        :meth:`fit`: landmark Gram, cross block, jittered factorisation.
        ``config.num_landmarks`` must match ``len(landmark_rows)`` (build the
        map with ``dataclasses.replace(config, num_landmarks=...)``).
        """
        X = self.engine.validate_features(X)
        rows = self.engine.validate_features(landmark_rows)
        if rows.shape[0] != self.config.num_landmarks:
            raise KernelError(
                f"config expects {self.config.num_landmarks} landmarks but "
                f"{rows.shape[0]} rows were supplied"
            )
        self.landmark_indices_ = None
        self.landmark_rows_ = rows.copy()

        gram_result = self.engine.gram(self.landmark_rows_)
        self.report.absorb(gram_result)
        K_mm = gram_result.matrix
        self.landmark_states_ = list(gram_result.states)
        self.landmark_block_ = gram_result.block

        cross_result = self.engine.cross(
            X, self.landmark_states_, block=self.landmark_block_
        )
        self.report.absorb(cross_result)
        K_nm = cross_result.matrix

        self.normalization_ = self._factorise(K_mm)
        self.train_features_ = K_nm @ self.normalization_
        return self

    def _factorise(self, K_mm: np.ndarray) -> np.ndarray:
        """Jittered eigendecomposition -> ``U_r diag(lambda_r)^{-1/2}``."""
        m = K_mm.shape[0]
        sym = 0.5 * (K_mm + K_mm.T) + self.config.jitter * np.eye(m)
        eigvals, eigvecs = np.linalg.eigh(sym)
        order = np.argsort(eigvals)[::-1]
        eigvals, eigvecs = eigvals[order], eigvecs[:, order]
        keep = eigvals > self.config.eigen_tol
        if self.config.rank is not None:
            keep &= np.arange(m) < self.config.rank
        if not np.any(keep):
            raise KernelError(
                "landmark Gram matrix has no eigenvalue above eigen_tol; "
                "increase jitter or choose different landmarks"
            )
        self.rank_ = int(np.count_nonzero(keep))
        self.report.spectral_rank = self.rank_
        # Canonical C-contiguous layout: BLAS picks its kernel (and thus its
        # floating-point summation order) by memory layout, so a serialised
        # copy of the normalisation must not differ in stride from this one.
        return np.ascontiguousarray(
            eigvecs[:, keep] / np.sqrt(eigvals[keep])[None, :]
        )

    # ------------------------------------------------------------------
    def transform(self, X_new: np.ndarray) -> np.ndarray:
        """Feature matrix of new (scaled) rows: one landmark block sweep.

        Each row costs ``m`` overlaps against the cached landmark states'
        :class:`~repro.engine.StackedStateBlock` -- the training set itself
        is never touched.
        """
        return self.transform_result(X_new)[0]

    def transform_result(self, X_new: np.ndarray) -> tuple[np.ndarray, EngineResult]:
        """As :meth:`transform`, also returning the raw engine result.

        The projection is evaluated row-wise so that a point's features do
        not depend on which other points shared its batch -- the invariant
        the serving layer's batched-vs-sequential equivalence relies on.
        """
        self._require_fitted()
        result = self.engine.kernel_rows(
            X_new, self.landmark_states_, block=self.landmark_block_
        )
        self.report.absorb(result, transform=True)
        return self.project_kernel_rows(result.matrix), result

    def project_kernel_rows(self, kernel_rows: np.ndarray) -> np.ndarray:
        """Map precomputed landmark kernel rows to feature space, row-wise.

        Accepts a ``batch x m`` block of overlaps against the landmarks --
        the engine's, from :meth:`transform_result`, or one computed outside
        the engine, such as a reference kernel -- and applies the per-row
        normalisation, so identical rows give bit-identical features.
        """
        self._require_fitted()
        assert self.normalization_ is not None
        kernel_rows = np.asarray(kernel_rows, dtype=float)
        if kernel_rows.ndim == 1:
            kernel_rows = kernel_rows[None, :]
        m = self.config.num_landmarks
        if kernel_rows.shape[1] != m:
            raise KernelError(
                f"kernel rows have {kernel_rows.shape[1]} columns but the map "
                f"holds {m} landmarks"
            )
        return rowwise_matmul(kernel_rows, self.normalization_)

    # ------------------------------------------------------------------
    @staticmethod
    def approximate_kernel(
        phi_left: np.ndarray, phi_right: np.ndarray | None = None
    ) -> np.ndarray:
        """Reconstructed kernel block ``Phi_left Phi_right^T``."""
        right = phi_left if phi_right is None else phi_right
        return np.asarray(phi_left) @ np.asarray(right).T

    @staticmethod
    def reconstruction_error(K_exact: np.ndarray, phi: np.ndarray) -> float:
        """Relative Frobenius error of the low-rank reconstruction.

        ``|| K - Phi Phi^T ||_F / || K ||_F`` -- the quantity the rank-sweep
        benchmark and the rank-monotonicity metamorphic test track: keeping
        more eigenpairs of ``K_mm`` can only shrink it.
        """
        K_exact = np.asarray(K_exact, dtype=float)
        approx = NystroemFeatureMap.approximate_kernel(phi)
        denom = float(np.linalg.norm(K_exact))
        if denom == 0.0:
            raise KernelError("exact kernel matrix is identically zero")
        return float(np.linalg.norm(K_exact - approx)) / denom

    def fit_pair_budget(self, num_samples: int) -> int:
        """Upper bound on fit-time pair evaluations: ``n m + m (m-1)/2``."""
        m = self.config.num_landmarks
        return num_samples * m + m * (m - 1) // 2
