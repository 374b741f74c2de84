"""Low-rank kernel approximation: Nystrom landmarks + linearized SVM.

The exact quantum-kernel workflow is quadratic in the training-set size
(``n (n - 1) / 2`` MPS overlaps for the Gram matrix, ``n`` overlaps per
classified point).  This package provides the ``O(n m)`` low-rank path
layered on the unified :class:`~repro.engine.KernelEngine`:

* :mod:`~repro.approx.landmarks` -- pluggable landmark selectors (uniform,
  k-means, greedy farthest-point) behind a string registry;
* :mod:`~repro.approx.nystroem` -- the landmark Gram ``K_mm`` and cross-Gram
  ``K_nm`` computed by the engine's Gram and block sweeps, factorised into an
  explicit feature map ``Phi = K_nm K_mm^{-1/2}`` with jittered
  eigendecomposition;
* :mod:`~repro.approx.linear_svc` -- a primal squared-hinge linear SVM
  trained by semismooth Newton in the feature space, ``O(n m^2)`` overall;
* :mod:`~repro.approx.streaming` -- batched classification of newly
  arriving points via one sweep against the cached landmark states'
  :class:`~repro.engine.StackedStateBlock` (``m`` overlaps per query,
  constant memory in ``n``);
* :mod:`~repro.approx.drift` -- the online adaptation loop: a rolling
  conformal-coverage alarm, shadow refits that grow the landmark set from
  poorly reconstructed traffic, and atomic hot swaps into the serving tier.

Wired through :class:`repro.core.QuantumKernelPipeline` (``approximation=``
branch with rank sweeps), :class:`repro.core.QuantumKernelInferenceEngine`
(Nystrom-backed serving) and :func:`repro.svm.model_selection.cross_validate_nystroem`.
"""

from .drift import DriftAdaptation, DriftConfig, DriftController
from .landmarks import (
    GreedyLandmarkSelector,
    KMeansLandmarkSelector,
    LandmarkSelector,
    RidgeLeverageLandmarkSelector,
    UniformLandmarkSelector,
    available_landmark_strategies,
    get_landmark_selector,
    register_landmark_selector,
    select_landmarks,
)
from .linear_svc import LinearSVC
from .nystroem import NystroemConfig, NystroemFeatureMap, NystroemReport
from .streaming import StreamingBatchResult, StreamingNystroemClassifier

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
    "NystroemConfig",
    "NystroemFeatureMap",
    "NystroemReport",
    "LinearSVC",
    "StreamingBatchResult",
    "StreamingNystroemClassifier",
    "DriftConfig",
    "DriftAdaptation",
    "DriftController",
]
