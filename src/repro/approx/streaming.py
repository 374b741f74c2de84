"""Streaming classification on top of a fitted Nystrom feature map.

The serving story of the exact path computes ``n_train`` overlaps per query.
With a Nystrom model the hot path shrinks to ``m`` overlaps against the
*cached landmark states* -- one sweep of the batch against their
:class:`~repro.engine.StackedStateBlock` per arriving batch -- followed by
two small matrix products (the ``m x r``
normalisation and the ``r``-dimensional linear model).  The full training set
is never touched after fit, so a serving process only has to hold the
landmark states, the normalisation and the weight vector: constant memory in
the training-set size.

:meth:`StreamingNystroemClassifier.classify` scores a batch of raw rows.  It
is the one scoring path of a served row: record-at-a-time traffic is
coalesced into batches by :class:`repro.serving.AsyncServingQueue`, which
calls it once per flush.

Every call runs the engine's two primitives once
(:meth:`repro.engine.KernelEngine.kernel_rows`): the batch's state-store
misses are encoded in one stacked layer-MPO pass
(:meth:`repro.backends.Backend.simulate_batch`), then all rows are overlapped
with the pre-stacked landmark block
(:meth:`repro.backends.Backend.inner_product_block`).  Both are
bit-identical to their per-point forms, so every prediction is byte-identical
to point-at-a-time classification however requests were coalesced.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional, Protocol, Sequence

import numpy as np

from ..engine import EngineResult
from ..exceptions import KernelError, SVMError
from ..svm import FeatureScaler
from .nystroem import NystroemFeatureMap

__all__ = ["StreamingBatchResult", "StreamingNystroemClassifier"]


class _LinearModel(Protocol):
    """Anything exposing decision values over explicit features."""

    def decision_function(self, Phi: np.ndarray) -> np.ndarray: ...


def _engine_figure(name: str, doc: str) -> property:
    """A :class:`StreamingBatchResult` figure read off its ``engine_result``."""

    def read(self: "StreamingBatchResult"):
        return getattr(self.engine_result, name)

    return property(read, doc=f"{doc} (``engine_result.{name}``).")


@dataclass(frozen=True)
class StreamingBatchResult:
    """Classification of one batch plus cost accounting.

    The counts and wall times are derived: they are read off
    ``engine_result``, the engine call that computed the kernel rows.
    """

    predictions: np.ndarray
    decision_values: np.ndarray
    features: np.ndarray
    kernel_rows: np.ndarray
    engine_result: EngineResult = field(repr=False)

    num_simulations = _engine_figure("num_simulations", "Rows simulated")
    num_inner_products = _engine_figure("num_inner_products", "Overlaps evaluated")
    cache_hits = _engine_figure("cache_hits", "State-store hits")
    cache_misses = _engine_figure("cache_misses", "State-store misses")
    simulation_time_s = _engine_figure("simulation_time_s", "Encode wall seconds")
    inner_product_time_s = _engine_figure("inner_product_time_s", "Overlap wall seconds")

    @property
    def num_points(self) -> int:
        """Number of classified points in the batch."""
        return int(self.predictions.shape[0])


class StreamingNystroemClassifier:
    """Classify arriving points with ``m`` overlaps each, never ``n``.

    Parameters
    ----------
    feature_map:
        A *fitted* :class:`~repro.approx.nystroem.NystroemFeatureMap`; its
        engine and cached landmark states perform all quantum work.
    model:
        A fitted linear model over the map's feature space (typically
        :class:`~repro.approx.linear_svc.LinearSVC`).
    scaler:
        Optional :class:`~repro.svm.FeatureScaler` applied to raw rows
        before encoding (pass the pipeline's fitted scaler to serve raw
        traffic).
    """

    def __init__(
        self,
        feature_map: NystroemFeatureMap,
        model: _LinearModel,
        scaler: FeatureScaler | None = None,
    ) -> None:
        if not feature_map.is_fitted:
            raise KernelError("feature map must be fitted before serving")
        self.feature_map = feature_map
        self.model = model
        self.scaler = scaler
        self.num_served = 0
        #: Optional calibrated conformal classifier (see
        #: :meth:`attach_conformal`) plus its rolling-coverage window.
        self.conformal = None
        self._coverage_window: Optional[Deque[float]] = None
        self.feedback_count = 0

    # ------------------------------------------------------------------
    def scale(self, X_raw: np.ndarray) -> np.ndarray:
        """Raw rows -> the scaled representation the feature map encodes."""
        X_raw = np.asarray(X_raw, dtype=float)
        if X_raw.ndim == 1:
            X_raw = X_raw[None, :]
        return self.scaler.transform(X_raw) if self.scaler is not None else X_raw

    def classify(self, X_raw: np.ndarray) -> StreamingBatchResult:
        """Classify a batch immediately (scaling -> row sweep -> linear model).

        The kernel-row sweep is cache-aware end to end: rows already in the
        engine's state store skip simulation entirely, and the remaining cold
        rows are encoded together in one stacked pass before the
        landmark overlaps run.  ``num_simulations`` on the result therefore
        counts exactly the batch's cold rows.
        """
        phi, engine_result = self.feature_map.transform_result(self.scale(X_raw))
        decisions = np.asarray(self.model.decision_function(phi)).ravel()
        self.num_served += phi.shape[0]
        return StreamingBatchResult(
            (decisions > 0).astype(int),
            decisions,
            phi,
            engine_result.matrix,
            engine_result,
        )

    # ------------------------------------------------------------------
    def attach_conformal(
        self, conformal, window: int = 256
    ) -> "StreamingNystroemClassifier":
        """Attach a calibrated conformal wrapper and a rolling-coverage window.

        ``conformal`` is a calibrated
        :class:`~repro.svm.SplitConformalClassifier` (anything with
        ``predict_set(decision_values)``).  Labelled feedback recorded via
        :meth:`record_feedback` then maintains :meth:`rolling_coverage` over
        the last ``window`` points -- the live drift gauge the telemetry
        endpoint exports as ``repro_conformal_rolling_coverage``.  Attaching
        never touches the scoring path: predictions stay byte-identical.

        The wrapper must already be **calibrated**: an uncalibrated wrapper
        would accept feedback here only to explode on the first
        ``predict_set`` inside :meth:`record_feedback`, long after the
        misconfiguration happened.  Rejecting it at attach time keeps the
        failure at its cause.
        """
        if window < 1:
            raise SVMError(f"window must be >= 1, got {window}")
        if conformal is None or not getattr(conformal, "is_calibrated", True):
            raise SVMError(
                "attach_conformal requires a calibrated conformal classifier; "
                "call calibrate() on held-out scores first"
            )
        self.conformal = conformal
        self._coverage_window = deque(maxlen=int(window))
        self.feedback_count = 0
        return self

    def record_feedback(
        self, decision_values: np.ndarray, y_true: Sequence[int]
    ) -> float:
        """Score labelled feedback against the conformal sets; returns the
        batch coverage (fraction of true labels inside their predicted set).

        Requires :meth:`attach_conformal` first.  Each point contributes one
        0/1 coverage sample to the rolling window.
        """
        if self.conformal is None or self._coverage_window is None:
            raise SVMError(
                "no conformal classifier attached; call attach_conformal first"
            )
        decision_values = np.asarray(decision_values, dtype=float).ravel()
        labels = np.asarray(y_true, dtype=int).ravel()
        if decision_values.shape[0] != labels.shape[0]:
            raise SVMError(
                f"{decision_values.shape[0]} decision values but "
                f"{labels.shape[0]} labels"
            )
        if decision_values.shape[0] == 0:
            raise SVMError("feedback batch must contain at least one point")
        sets = self.conformal.predict_set(decision_values)
        covered = [1.0 if int(y) in s else 0.0 for s, y in zip(sets, labels)]
        self._coverage_window.extend(covered)
        self.feedback_count += len(covered)
        return float(np.mean(covered))

    def rolling_coverage(self) -> Optional[float]:
        """Coverage over the rolling feedback window (``None`` when empty)."""
        if not self._coverage_window:
            return None
        return float(np.mean(self._coverage_window))

    # ------------------------------------------------------------------
    @classmethod
    def from_serving_payload(
        cls, payload: dict, store=None, backend=None
    ) -> "StreamingNystroemClassifier":
        """Rebuild a full serving model from a :meth:`serving_payload` dict.

        The model owns a cache-enabled engine (its backend rebuilt by
        registry name), the deserialised landmark states, and unpickled
        copies of the linear model and scaler -- everything needed to serve
        traffic with predictions bit-identical to the process that produced
        the payload.  ``store`` optionally injects an externally owned state
        store (e.g. a :class:`repro.serving.PersistentStateStore` that warm
        starts the service from an on-disk snapshot), and ``backend`` an
        existing backend of the payload's simulation config (a swap keeps
        the served one, so its counters carry on).
        """
        import pickle

        from ..engine import EngineConfig, KernelEngine, deserialize_states

        missing = [
            k
            for k in (
                "ansatz_kwargs",
                "simulation_kwargs",
                "backend_name",
                "landmark_payload",
                "normalization",
                "model_blob",
                "scaler_blob",
            )
            if k not in payload
        ]
        if missing:
            raise SVMError(f"serving payload is missing keys: {missing}")
        engine = KernelEngine.from_worker_kwargs(
            payload["ansatz_kwargs"],
            payload["simulation_kwargs"],
            payload["backend_name"],
            config=EngineConfig(use_cache=True),
            store=store,
            backend=backend,
        )
        feature_map = NystroemFeatureMap.from_attached(
            engine,
            deserialize_states(payload["landmark_payload"]),
            payload["normalization"],
        )
        if payload.get("landmark_rows") is not None:
            # The scaled landmark rows ride along (when the producer had
            # them) so a drift controller attached to this model can grow
            # the landmark set without reaching back to the fitting process.
            feature_map.landmark_rows_ = np.asarray(
                payload["landmark_rows"], dtype=float
            ).copy()
        return cls(
            feature_map,
            pickle.loads(payload["model_blob"]),
            scaler=pickle.loads(payload["scaler_blob"]),
        )

    def serving_payload(self) -> dict:
        """Everything a service needs to serve this model, picklable.

        The landmark MPS -- the engine's cached state-store entries for the
        landmark rows -- are serialised exactly once here; the scaler and the
        linear model ride along as pickled blobs, and the engine is described
        by its configuration (a service rebuilds it by backend registry
        name).  :meth:`from_serving_payload` rebuilds the classifier from
        it; :func:`repro.serve` and a swap attach it.
        """
        import pickle

        from ..engine import serialize_states

        engine = self.feature_map.engine
        assert self.feature_map.normalization_ is not None
        rows = self.feature_map.landmark_rows_
        return {
            "ansatz_kwargs": engine.ansatz.to_dict(),
            "simulation_kwargs": engine.backend.config.to_dict(),
            "backend_name": engine.backend.name,
            "landmark_payload": serialize_states(self.feature_map.landmark_states_),
            "normalization": np.asarray(self.feature_map.normalization_).copy(),
            "landmark_rows": None if rows is None else np.asarray(rows).copy(),
            "model_blob": pickle.dumps(self.model, protocol=pickle.HIGHEST_PROTOCOL),
            "scaler_blob": pickle.dumps(self.scaler, protocol=pickle.HIGHEST_PROTOCOL),
        }
