"""Online drift adaptation: coverage alarm, shadow fit, atomic swap.

Split-conformal coverage is the one guarantee the serving stack makes that
*breaks observably* under distribution shift: the calibrated quantile is
valid only while traffic stays exchangeable with the calibration split, so
when the input distribution moves, the rolling coverage over labelled
feedback dips below ``1 - alpha`` long before accuracy metrics are
trustworthy.  :class:`DriftController` turns that gauge into a closed loop:

* **Alarm** -- labelled feedback (raw rows, served decision values, true
  labels) streams through :meth:`DriftController.record_feedback`, which
  scores each point against the controller's conformal sets and maintains a
  rolling coverage window; a row of the wrong width or with a NaN/inf
  feature is rejected before anything is recorded.  The alarm fires when
  the window holds at least ``min_samples`` points *and* coverage sits
  below ``1 - alpha - hysteresis``; it re-arms only once coverage climbs
  back to ``1 - alpha``, so a coverage value oscillating around the
  threshold cannot flap the alarm.

* **Shadow fit** -- :meth:`DriftController.adapt` rebuilds the model on a
  *fresh* engine (same ansatz / simulation config, its own state store), so
  the served engine is never touched while it scores traffic.
  The landmark set grows from the buffered feedback rows whose Nystrom
  reconstruction residual ``max(0, 1 - ||phi(x)||^2)`` exceeds
  ``reconstruction_bound`` -- exactly the rows the current landmarks cannot
  represent, i.e. where the shifted distribution lives.  When more rows
  qualify than ``max_new_landmarks``, a registry selector (default the
  ridge-leverage sampler) picks the most informative subset.  The linear SVM
  is then refit from zero on the buffered traffic: the primal Newton solver
  needs a handful of iterations, and a start seeded from the previous
  generation saves at most one.  Finally the conformal quantile is
  recalibrated on a held-out split of the *fresh* samples, restoring the
  exchangeability assumption for post-shift traffic.  A refit with
  ``max_new_landmarks=0`` is a routine refresh over a frozen basis.

* **Swap** -- the adapted model is installed through the target's
  ``swap_payload`` (an :class:`~repro.serving.AsyncServingQueue`, e.g. the
  ``queue`` of a :class:`~repro.serving.ServingHandle`): versioned, atomic,
  and in-flight flushes complete against the old payload, so serving is
  never paused and no request is dropped.

The controller deliberately owns its *own* conformal wrapper and coverage
window rather than piggybacking on the served classifier's
``attach_conformal`` state: a served classifier is disposable (swapped out,
restored from snapshots) while the drift loop must observe continuously
across model generations.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Protocol

import numpy as np

from ..exceptions import DriftError
from ..svm.conformal import SplitConformalClassifier
from ..telemetry.tracing import TRACER
from .linear_svc import LinearSVC
from .nystroem import NystroemFeatureMap
from .streaming import StreamingNystroemClassifier

__all__ = ["DriftConfig", "DriftAdaptation", "DriftController"]


class _SwapTarget(Protocol):
    """Anything installing a serving payload atomically at a new version."""

    def swap_payload(self, payload: dict, version: int | None = None) -> int: ...


@dataclass(frozen=True)
class DriftConfig:
    """Hyper-parameters of the drift-adaptation loop.

    Parameters
    ----------
    hysteresis:
        Width of the dead band below the coverage target: the alarm fires at
        ``1 - alpha - hysteresis`` and re-arms at ``1 - alpha``, so noise
        around a single threshold cannot flap it.
    window:
        Rolling-coverage window length (points of labelled feedback).
    min_samples:
        Minimum window occupancy before the alarm may fire; below this the
        coverage estimate is too noisy to act on.
    buffer_size:
        How many of the most recent labelled feedback rows are retained as
        shadow-fit material (raw rows + labels, FIFO); at least
        ``min_refit_samples``.
    min_refit_samples:
        :meth:`DriftController.adapt` refuses to run with fewer buffered
        samples than this -- a refit on a handful of points would install a
        worse model than the drifted one.
    calibration_fraction:
        Fraction of the buffered samples held out (seeded split) to
        recalibrate the conformal quantile; the rest train the refit.
    max_new_landmarks:
        Cap on landmark growth per adaptation.
    reconstruction_bound:
        Residual threshold above which a buffered row becomes a landmark
        candidate (``max(0, 1 - ||phi(x)||^2)``; the fidelity kernel has
        ``k(x, x) = 1``, so this is the mass the current landmark span
        misses).
    growth_strategy:
        Landmark-selector registry name used to pick among candidates when
        more qualify than ``max_new_landmarks``.
    seed:
        Seed for the calibration split and the growth selector.
    """

    hysteresis: float = 0.05
    window: int = 128
    min_samples: int = 48
    buffer_size: int = 512
    min_refit_samples: int = 32
    calibration_fraction: float = 0.25
    max_new_landmarks: int = 8
    reconstruction_bound: float = 0.15
    growth_strategy: str = "ridge-leverage"
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.hysteresis < 1.0):
            raise DriftError(
                f"hysteresis must be in [0, 1), got {self.hysteresis}"
            )
        if self.window < 1:
            raise DriftError(f"window must be >= 1, got {self.window}")
        if self.min_samples < 1:
            raise DriftError(f"min_samples must be >= 1, got {self.min_samples}")
        if self.min_samples > self.window:
            raise DriftError(
                f"min_samples ({self.min_samples}) cannot exceed the window "
                f"({self.window})"
            )
        if self.buffer_size < 2:
            raise DriftError(f"buffer_size must be >= 2, got {self.buffer_size}")
        if self.min_refit_samples < 2:
            raise DriftError(
                f"min_refit_samples must be >= 2, got {self.min_refit_samples}"
            )
        if self.buffer_size < self.min_refit_samples:
            raise DriftError(
                f"buffer_size ({self.buffer_size}) cannot be below "
                f"min_refit_samples ({self.min_refit_samples})"
            )
        if not (0.0 < self.calibration_fraction < 1.0):
            raise DriftError(
                f"calibration_fraction must be in (0, 1), "
                f"got {self.calibration_fraction}"
            )
        if self.max_new_landmarks < 0:
            raise DriftError(
                f"max_new_landmarks must be >= 0, got {self.max_new_landmarks}"
            )
        if self.reconstruction_bound < 0:
            raise DriftError(
                f"reconstruction_bound must be >= 0, "
                f"got {self.reconstruction_bound}"
            )


@dataclass(frozen=True)
class DriftAdaptation:
    """Record of one completed alarm -> shadow fit -> swap cycle."""

    version: int
    coverage_before: float
    old_num_landmarks: int
    new_num_landmarks: int
    num_candidates: int
    refit_samples: int
    calibration_samples: int
    refit_iterations: int

    @property
    def landmarks_grown(self) -> int:
        """How many landmarks this adaptation added."""
        return self.new_num_landmarks - self.old_num_landmarks


class DriftController:
    """Watch rolling conformal coverage; adapt and hot-swap on drift.

    Parameters
    ----------
    classifier:
        The currently served
        :class:`~repro.approx.StreamingNystroemClassifier` (or one rebuilt
        from its serving payload).  The controller reads -- never mutates -- its feature
        map, model, and scaler; after :meth:`adapt` the controller's
        reference moves to the freshly fitted generation.
    conformal:
        A **calibrated** :class:`~repro.svm.SplitConformalClassifier`; its
        ``alpha`` defines the coverage target ``1 - alpha`` the alarm
        guards.
    target:
        Where adapted models are installed: anything with ``swap_payload``
        (a serving queue, e.g. ``handle.queue``).  ``None`` builds the new generation without
        swapping (the caller receives it via :attr:`classifier`).
    config:
        A :class:`DriftConfig`; defaults throughout when omitted.
    """

    def __init__(
        self,
        classifier: StreamingNystroemClassifier,
        conformal: SplitConformalClassifier,
        target: Optional[_SwapTarget] = None,
        config: Optional[DriftConfig] = None,
    ) -> None:
        if not getattr(conformal, "is_calibrated", False):
            raise DriftError(
                "DriftController needs a calibrated conformal classifier; "
                "call calibrate() on held-out scores first"
            )
        self.classifier = classifier
        self.conformal = conformal
        self.target = target
        self.config = config if config is not None else DriftConfig()

        self._coverage_window: Deque[float] = deque(maxlen=self.config.window)
        self._row_buffer: Deque[np.ndarray] = deque(maxlen=self.config.buffer_size)
        self._label_buffer: Deque[int] = deque(maxlen=self.config.buffer_size)
        self._rng = np.random.default_rng(self.config.seed)

        self.alarm_active = False
        self.feedback_count = 0
        self.alarm_count = 0
        self.refit_count = 0
        self.swap_count = 0
        self.adaptations: List[DriftAdaptation] = []

    # ------------------------------------------------------------------
    @property
    def coverage_target(self) -> float:
        """The conformal guarantee the alarm defends: ``1 - alpha``."""
        return 1.0 - self.conformal.alpha

    def rolling_coverage(self) -> Optional[float]:
        """Coverage over the rolling feedback window (``None`` when empty)."""
        if not self._coverage_window:
            return None
        return float(np.mean(self._coverage_window))

    @property
    def buffered_samples(self) -> int:
        """Labelled rows currently available as shadow-fit material."""
        return len(self._row_buffer)

    # ------------------------------------------------------------------
    def record_feedback(
        self,
        rows: np.ndarray,
        decision_values: np.ndarray,
        y_true: np.ndarray,
    ) -> float:
        """Ingest one batch of labelled feedback; returns its coverage.

        ``rows`` are the *raw* feature rows as served (the controller scales
        them with the classifier's own scaler at adaptation time),
        ``decision_values`` the decision values the service answered with
        (e.g. from :class:`~repro.serving.ServedPrediction`), and ``y_true``
        the ground-truth labels that arrived later.  Each point contributes
        one 0/1 sample to the rolling coverage window and one candidate row
        to the shadow-fit buffer, then the alarm predicate is re-evaluated.
        A batch holding a row of the wrong width or a NaN/inf feature raises
        :class:`~repro.exceptions.DriftError` and records nothing: buffered,
        it would fail every later :meth:`adapt` until it rolled out.
        """
        rows = np.asarray(rows, dtype=float)
        if rows.ndim == 1:
            rows = rows[None, :]
        expected = self.classifier.feature_map.engine.ansatz.num_features
        if rows.ndim != 2 or rows.shape[1] != expected:
            raise DriftError(
                f"feedback rows have shape {rows.shape} but the model "
                f"expects {expected} features per row"
            )
        if not np.isfinite(rows).all():
            raise DriftError("feedback rows hold a NaN or infinite feature value")
        decision_values = np.asarray(decision_values, dtype=float).ravel()
        labels = np.asarray(y_true, dtype=int).ravel()
        if rows.shape[0] != decision_values.shape[0] or rows.shape[0] != labels.shape[0]:
            raise DriftError(
                f"feedback batch is inconsistent: {rows.shape[0]} rows, "
                f"{decision_values.shape[0]} decision values, "
                f"{labels.shape[0]} labels"
            )
        if rows.shape[0] == 0:
            raise DriftError("feedback batch must contain at least one point")

        sets = self.conformal.predict_set(decision_values)
        covered = [1.0 if int(y) in s else 0.0 for s, y in zip(sets, labels)]
        self._coverage_window.extend(covered)
        for row, label in zip(rows, labels):
            self._row_buffer.append(np.array(row, dtype=float))
            self._label_buffer.append(int(label))
        self.feedback_count += len(covered)
        self._update_alarm()
        return float(np.mean(covered))

    def _update_alarm(self) -> None:
        """Hysteresis predicate over the rolling window."""
        coverage = self.rolling_coverage()
        if coverage is None:
            return
        if self.alarm_active:
            if coverage >= self.coverage_target:
                self.alarm_active = False
        elif (
            len(self._coverage_window) >= self.config.min_samples
            and coverage < self.coverage_target - self.config.hysteresis
        ):
            self.alarm_active = True
            self.alarm_count += 1

    # ------------------------------------------------------------------
    def adapt(self) -> DriftAdaptation:
        """Shadow-fit a new generation from buffered traffic and install it.

        Runs regardless of the alarm state (callers usually gate on
        :attr:`alarm_active`); raises :class:`~repro.exceptions.DriftError`
        when the buffer cannot support a sound refit.  On success the
        controller's :attr:`classifier` points at the new generation, its
        coverage window and buffers are cleared (the old window measured the
        old model -- acting on it again would double-trigger), and the alarm
        re-arms.
        """
        cfg = self.config
        if self.buffered_samples < cfg.min_refit_samples:
            raise DriftError(
                f"cannot adapt: {self.buffered_samples} buffered samples but "
                f"min_refit_samples is {cfg.min_refit_samples}"
            )
        labels = np.asarray(self._label_buffer, dtype=int)
        if np.unique(labels).size < 2:
            raise DriftError(
                "cannot adapt: buffered feedback contains a single class"
            )
        old_map = self.classifier.feature_map
        if old_map.landmark_rows_ is None:
            raise DriftError(
                "cannot adapt: the serving payload carried no landmark rows "
                "(refit the model with a current repro version)"
            )

        rows_raw = np.vstack(list(self._row_buffer))
        coverage_before = float(self.rolling_coverage() or 0.0)

        with TRACER.span("drift.adapt") as span:
            new_classifier, new_conformal, report_fields = self._shadow_fit(
                rows_raw, labels
            )
            version = 0
            if self.target is not None:
                version = self.target.swap_payload(
                    new_classifier.serving_payload()
                )
                self.swap_count += 1
            if span is not None:
                span.set_attribute("version", version)
                span.set_attribute(
                    "landmarks", report_fields["new_num_landmarks"]
                )

        adaptation = DriftAdaptation(
            version=version,
            coverage_before=coverage_before,
            **report_fields,
        )
        self.adaptations.append(adaptation)
        self.refit_count += 1

        # The new generation serves future traffic; everything the window
        # and buffers hold was scored under the old one.
        self.classifier = new_classifier
        self.conformal = new_conformal
        self._coverage_window.clear()
        self._row_buffer.clear()
        self._label_buffer.clear()
        self.alarm_active = False
        return adaptation

    # ------------------------------------------------------------------
    def _shadow_fit(self, rows_raw: np.ndarray, labels: np.ndarray):
        """Grow landmarks, refit, recalibrate -- off to the side.

        All quantum work runs on a fresh engine so the served engine (busy
        scoring traffic on its own thread) is never shared.
        """
        from ..engine import EngineConfig, KernelEngine

        cfg = self.config
        old_map = self.classifier.feature_map
        old_engine = old_map.engine
        X_scaled = self.classifier.scale(rows_raw)

        with TRACER.span("drift.shadow_fit") as span:
            shadow_engine = KernelEngine.from_worker_kwargs(
                old_engine.ansatz.to_dict(),
                old_engine.backend.config.to_dict(),
                old_engine.backend.name,
                config=EngineConfig(use_cache=True),
            )
            # The old map, rebuilt on the shadow engine, measures which
            # buffered rows its landmark span cannot represent.
            shadow_old = NystroemFeatureMap.from_attached(
                shadow_engine,
                list(old_map.landmark_states_),
                np.asarray(old_map.normalization_),
            )
            grown_rows, num_candidates = self._grow_landmarks(
                shadow_old, X_scaled
            )
            old_rows = np.asarray(old_map.landmark_rows_, dtype=float)
            if grown_rows.shape[0]:
                new_rows = np.vstack([old_rows, grown_rows])
            else:
                new_rows = old_rows.copy()

            # Seeded held-out split of the *fresh* samples: the refit trains
            # on one part, the conformal quantile recalibrates on the other
            # (split conformal needs scores the model never trained on).
            n = X_scaled.shape[0]
            perm = self._rng.permutation(n)
            n_calib = max(1, int(round(cfg.calibration_fraction * n)))
            if n - n_calib < 2:
                raise DriftError(
                    f"cannot adapt: {n} buffered samples leave fewer than two "
                    f"training points after the calibration split"
                )
            calib_idx, train_idx = perm[:n_calib], perm[n_calib:]
            y_train, y_calib = labels[train_idx], labels[calib_idx]
            if np.unique(y_train).size < 2:
                raise DriftError(
                    "cannot adapt: training split contains a single class "
                    "(try a different seed or more buffered feedback)"
                )

            new_config = dataclasses.replace(
                old_map.config, num_landmarks=new_rows.shape[0]
            )
            new_map = NystroemFeatureMap(shadow_engine, new_config)
            new_map.fit_with_landmarks(X_scaled[train_idx], new_rows)
            assert new_map.train_features_ is not None

            # The refit keeps the served model's solver settings.
            old_model = self.classifier.model
            model = LinearSVC(
                C=getattr(old_model, "C", 1.0),
                tol=getattr(old_model, "tol", 1e-6),
                max_iter=getattr(old_model, "max_iter", 100),
                fit_intercept=getattr(old_model, "fit_intercept", True),
                strict_convergence=getattr(old_model, "strict_convergence", False),
            ).fit(new_map.train_features_, y_train)
            if span is not None:
                span.set_attribute("candidates", num_candidates)
                span.set_attribute("landmarks", new_rows.shape[0])
                span.set_attribute("refit_iterations", model.n_iter_)

        with TRACER.span("drift.recalibrate") as span:
            calib_decisions = np.asarray(
                model.decision_function(new_map.transform(X_scaled[calib_idx]))
            ).ravel()
            new_conformal = SplitConformalClassifier(
                alpha=self.conformal.alpha
            ).calibrate(calib_decisions, y_calib)
            if span is not None:
                span.set_attribute("calibration_samples", int(n_calib))

        new_classifier = StreamingNystroemClassifier(
            new_map,
            model,
            scaler=self.classifier.scaler,
        )
        report_fields = {
            "old_num_landmarks": int(old_rows.shape[0]),
            "new_num_landmarks": int(new_rows.shape[0]),
            "num_candidates": int(num_candidates),
            "refit_samples": int(train_idx.size),
            "calibration_samples": int(n_calib),
            "refit_iterations": int(model.n_iter_),
        }
        return new_classifier, new_conformal, report_fields

    def _grow_landmarks(
        self, shadow_old: NystroemFeatureMap, X_scaled: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Candidate rows the current span misses, capped by the selector.

        Returns ``(rows_to_add, num_candidates)``; candidates are deduplicated
        against each other and against the existing landmark rows by exact
        byte content (a row already serving as a landmark has residual ~0
        anyway, but float noise should not readmit it).
        """
        cfg = self.config
        if cfg.max_new_landmarks == 0:
            return np.empty((0, X_scaled.shape[1])), 0
        phi = shadow_old.transform(X_scaled)
        residual = np.maximum(0.0, 1.0 - np.sum(phi * phi, axis=1))
        candidate_idx = np.flatnonzero(residual > cfg.reconstruction_bound)

        existing = {
            np.asarray(row, dtype=float).tobytes()
            for row in np.asarray(self.classifier.feature_map.landmark_rows_)
        }
        unique_idx: List[int] = []
        for i in candidate_idx:
            key = X_scaled[i].tobytes()
            if key in existing:
                continue
            existing.add(key)
            unique_idx.append(int(i))
        if not unique_idx:
            return np.empty((0, X_scaled.shape[1])), 0

        candidates = X_scaled[unique_idx]
        if candidates.shape[0] > cfg.max_new_landmarks:
            from .landmarks import select_landmarks

            chosen = select_landmarks(
                candidates,
                cfg.max_new_landmarks,
                strategy=cfg.growth_strategy,
                seed=self._rng,
            )
            candidates = candidates[chosen]
        return candidates.copy(), len(unique_idx)
