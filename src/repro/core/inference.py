"""Inference on new data points with a trained quantum-kernel model.

The paper describes classification of an unlabeled data point as: simulate
the corresponding circuit, calculate the inner products of the resulting MPS
with each stored training state (parallelisable, linear in the training-set
size), and feed the resulting kernel row to the trained SVM.
:class:`QuantumKernelInferenceEngine` packages that workflow: it owns the
scaler, the encoded training states and the fitted SVM, and exposes
``predict`` / ``decision_function`` for new raw feature rows, together with
the per-point cost accounting the paper quotes (about 2 s of simulation plus
milliseconds per training-state inner product at full scale).

The heavy lifting dispatches through a cache-enabled
:class:`repro.engine.KernelEngine`: training encodes populate the
content-addressed :class:`~repro.engine.StateStore`, and inference sweeps
new rows against a :class:`~repro.engine.StackedStateBlock` of the stored
states, so a point
that was ever encoded before (training or a repeated query) is served from
the cache with zero redundant simulations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..approx import (
    LinearSVC,
    NystroemConfig,
    NystroemFeatureMap,
    StreamingNystroemClassifier,
)
from ..backends import Backend
from ..config import AnsatzConfig, SimulationConfig
from ..engine import EngineConfig, KernelEngine, StackedStateBlock
from ..exceptions import SVMError
from ..mps import MPS
from ..svm import FeatureScaler, PrecomputedKernelSVC

__all__ = ["InferenceResult", "QuantumKernelInferenceEngine"]


@dataclass(frozen=True)
class InferenceResult:
    """Predictions for a batch of new data points plus cost accounting."""

    predictions: np.ndarray
    decision_values: np.ndarray
    kernel_rows: np.ndarray
    simulation_time_s: float
    inner_product_time_s: float
    num_inner_products: int
    num_simulations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def num_points(self) -> int:
        """Number of classified points."""
        return int(self.predictions.shape[0])


@dataclass
class QuantumKernelInferenceEngine:
    """Train once, then classify new points against the stored MPS states.

    Parameters
    ----------
    ansatz:
        Feature-map hyper-parameters.
    C / tol:
        SVM hyper-parameters used for the final model (no grid search here;
        use :class:`repro.core.QuantumKernelPipeline` for model selection and
        pass the winning ``C``).
    backend:
        MPS backend (defaults to the CPU backend).
    use_cache / cache_bytes:
        Whether encodes go through a content-addressed state store (default:
        yes, unbounded).  With the cache on, classifying a point that was
        part of the training set -- or was classified before -- performs no
        MPS simulation at all.
    approximation:
        A :class:`~repro.approx.NystroemConfig` to back the engine with a
        low-rank model: training costs ``O(n m)`` engine pairs and serving
        evaluates ``m`` overlaps per point against the cached landmark
        states instead of ``n`` against the full training set.  ``tol``
        applies only to the exact SMO path.
    """

    ansatz: AnsatzConfig
    C: float = 1.0
    tol: float = 1e-3
    backend: Backend | None = None
    simulation: SimulationConfig | None = None
    use_cache: bool = True
    cache_bytes: int | None = None
    approximation: NystroemConfig | None = None
    _scaler: FeatureScaler = field(default_factory=FeatureScaler, repr=False)
    _engine: KernelEngine | None = field(default=None, repr=False)
    _train_states: List[MPS] = field(default_factory=list, repr=False)
    _train_block: StackedStateBlock | None = field(default=None, repr=False)
    _model: PrecomputedKernelSVC | None = field(default=None, repr=False)
    _feature_map: NystroemFeatureMap | None = field(default=None, repr=False)
    _linear_model: LinearSVC | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self._engine = KernelEngine(
            self.ansatz,
            backend=self.backend,
            simulation=self.simulation,
            config=EngineConfig(use_cache=self.use_cache, cache_bytes=self.cache_bytes),
        )
        self.backend = self._engine.backend

    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed."""
        return self._model is not None or self._linear_model is not None

    @property
    def is_approximate(self) -> bool:
        """Whether serving goes through the Nystrom low-rank path."""
        return self.approximation is not None

    @property
    def num_training_states(self) -> int:
        """Number of stored MPS the serving path touches per query.

        The full training set on the exact path; only the landmarks on the
        Nystrom path.
        """
        return len(self._train_states)

    @property
    def engine(self) -> KernelEngine:
        """The underlying compute engine (shared cache, counters)."""
        assert self._engine is not None
        return self._engine

    def cache_stats(self):
        """State-store statistics, or ``None`` when caching is disabled."""
        return self.engine.cache_stats()

    def fit(self, X_train: np.ndarray, y_train: np.ndarray) -> "QuantumKernelInferenceEngine":
        """Scale, encode and store the training set, then train the SVM.

        Encoding and the triangular Gram sweep both run through the engine,
        so the training states land in the state store for later inference.  On
        the Nystrom path only the landmark Gram and the ``n x m`` cross
        block are evaluated, and a primal :class:`~repro.approx.LinearSVC`
        replaces the SMO dual solver.
        """
        X_train = np.asarray(X_train, dtype=float)
        Xs = self._scaler.fit_transform(X_train)
        if self.approximation is not None:
            self._feature_map = NystroemFeatureMap(self.engine, self.approximation)
            phi = self._feature_map.fit_transform(Xs)
            self._linear_model = LinearSVC(C=self.C).fit(phi, y_train)
            self._train_states = list(self._feature_map.landmark_states_)
            return self
        result = self.engine.gram(Xs)
        self._train_states = list(result.states)
        self._train_block = result.block
        self._model = PrecomputedKernelSVC(C=self.C, tol=self.tol).fit(
            result.matrix, y_train
        )
        return self

    # ------------------------------------------------------------------
    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise SVMError("inference engine is not fitted; call fit() first")

    def kernel_rows(self, X_new: np.ndarray) -> InferenceResult:
        """Kernel rows of new points against the stored states.

        Exact path: rows against every training state, scored by the SMO
        model.  Nystrom path: rows against the ``m`` landmark states only,
        mapped through the low-rank normalisation and scored by the linear
        model -- the full training set is never touched.
        """
        self._require_fitted()
        X_new = np.asarray(X_new, dtype=float)
        if X_new.ndim == 1:
            X_new = X_new[None, :]
        Xs = self._scaler.transform(X_new)

        if self.approximation is not None:
            assert self._feature_map is not None and self._linear_model is not None
            phi, result = self._feature_map.transform_result(Xs)
            decisions = self._linear_model.decision_function(phi)
        else:
            assert self._model is not None
            result = self.engine.kernel_rows(
                Xs, self._train_states, block=self._train_block
            )
            decisions = self._model.decision_function(result.matrix)
        return InferenceResult(
            predictions=(decisions > 0).astype(int),
            decision_values=decisions,
            kernel_rows=result.matrix,
            simulation_time_s=result.simulation_time_s,
            inner_product_time_s=result.inner_product_time_s,
            num_inner_products=result.num_inner_products,
            num_simulations=result.num_simulations,
            cache_hits=result.cache_hits,
            cache_misses=result.cache_misses,
        )

    def decision_function(self, X_new: np.ndarray) -> np.ndarray:
        """Continuous decision values for new raw feature rows."""
        return self.kernel_rows(X_new).decision_values

    def predict(self, X_new: np.ndarray) -> np.ndarray:
        """Binary predictions in {0, 1} for new raw feature rows."""
        return self.kernel_rows(X_new).predictions

    # ------------------------------------------------------------------
    def streaming_classifier(self) -> StreamingNystroemClassifier:
        """The fitted Nystrom model as a raw-traffic streaming classifier.

        Shares this engine's feature map, linear model and scaler (and hence
        the state store), so the returned classifier's predictions match
        :meth:`predict` exactly.  Only available on the approximate path --
        exact serving touches every training state and has no constant-memory
        streaming story.
        """
        self._require_fitted()
        if self._feature_map is None or self._linear_model is None:
            raise SVMError(
                "streaming serving requires a Nystrom-backed engine; "
                "construct with approximation=NystroemConfig(...)"
            )
        return StreamingNystroemClassifier(
            self._feature_map,
            self._linear_model,
            scaler=self._scaler,
        )

    def serving_queue(self, **queue_kwargs):
        """An :class:`~repro.serving.AsyncServingQueue` over this model.

        Keyword arguments pass through to the queue constructor
        (``max_batch``, ``memoize``, ``memo_capacity``); its coalescer flushes
        whatever is pending, up to ``max_batch``, whenever it is idle.  The
        caller owns the returned queue and must ``close()`` it (or use it as
        a context manager).
        """
        from ..serving import AsyncServingQueue

        return AsyncServingQueue(self.streaming_classifier(), **queue_kwargs)

    def serving_payload(self) -> dict:
        """The fitted model as one picklable payload (see streaming docs).

        Serialised once, attached anywhere: a classifier rebuilt with
        :meth:`StreamingNystroemClassifier.from_serving_payload`, or a
        :class:`~repro.serving.ReplicaRouter` fleet.
        """
        return self.streaming_classifier().serving_payload()

    def replica_router(self, **router_kwargs):
        """A :class:`~repro.serving.ReplicaRouter` fleet over this model.

        Serialises the fitted model once and hands it to the router, which
        attaches one replica engine per ``num_replicas``.  Keyword arguments
        pass through (``num_replicas``, ``policy``,
        ``queue_depth_high_water``, ``persistence_root``, plus any queue
        knobs); the caller owns the returned router and must ``close()`` it.
        """
        from ..serving import ReplicaRouter

        return ReplicaRouter(self.serving_payload(), **router_kwargs)
