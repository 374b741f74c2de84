"""Drift controller suite: alarm discipline, shadow fits, live recovery.

The fast tests drive the hysteresis alarm with hand-built conformal state
(no engine), pinning exactly when it may and may not fire.  The slow tests
run the full loop against seeded drift-injection scenarios from
``tests/conftest.py``: the alarm must stay silent on i.i.d. traffic, fire
under injected covariate and label shift, and -- after a shadow fit and an
atomic swap -- rolling coverage must recover to the conformal target while
the serving queue never drops or pauses a request.
"""

import dataclasses
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.approx import (
    DriftConfig,
    DriftController,
    NystroemConfig,
)
from repro.config import AnsatzConfig
from repro.core import QuantumKernelInferenceEngine
from repro.exceptions import DriftError, ReproError
from repro.svm.conformal import SplitConformalClassifier
from repro.telemetry import MetricsRegistry, bind_drift_controller

ANSATZ = AnsatzConfig(num_features=4, interaction_distance=1, layers=1, gamma=0.6)
ALPHA = 0.15


# ----------------------------------------------------------------------
# Hand-built conformal state: quantile 0.5, so a point with decision value
# 0.0 is always covered (both labels fit) and one with |decision| = 10 and
# the wrong-side label never is.
# ----------------------------------------------------------------------
def _stub_conformal(alpha: float = ALPHA) -> SplitConformalClassifier:
    conformal = SplitConformalClassifier(alpha=alpha)
    conformal.quantile_ = 0.5
    conformal.num_calibration_ = 100
    return conformal


_COVERED = (0.0, 1)  # decision value, label
_MISSED = (10.0, 0)


def _controller(config: DriftConfig, classifier=None) -> DriftController:
    if classifier is None:
        classifier = SimpleNamespace(
            feature_map=SimpleNamespace(
                landmark_rows_=None, engine=SimpleNamespace(ansatz=ANSATZ)
            )
        )
    return DriftController(classifier, _stub_conformal(), config=config)


def _feed(controller: DriftController, points, dim: int = 4) -> None:
    rows = np.zeros((len(points), dim))
    decisions = np.array([p[0] for p in points])
    labels = np.array([p[1] for p in points])
    controller.record_feedback(rows, decisions, labels)


# ----------------------------------------------------------------------
# Configuration and construction guards
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"hysteresis": -0.1},
        {"hysteresis": 1.0},
        {"window": 0},
        {"min_samples": 0},
        {"min_samples": 50, "window": 20},
        {"buffer_size": 1},
        {"min_refit_samples": 1},
        {"buffer_size": 10, "min_refit_samples": 32},
        {"calibration_fraction": 0.0},
        {"calibration_fraction": 1.0},
        {"max_new_landmarks": -1},
        {"reconstruction_bound": -0.5},
    ],
)
def test_invalid_config_raises(kwargs):
    with pytest.raises(DriftError):
        DriftConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"min_samples": 20, "window": 20},
        {"buffer_size": 32, "min_refit_samples": 32},
    ],
    ids=["min-samples-equals-window", "buffer-equals-min-refit"],
)
def test_boundary_config_is_accepted(kwargs):
    config = DriftConfig(**kwargs)
    for name, value in kwargs.items():
        assert getattr(config, name) == value


def test_drift_error_is_repro_error():
    assert issubclass(DriftError, ReproError)


def test_controller_rejects_uncalibrated_conformal():
    with pytest.raises(DriftError, match="calibrated"):
        DriftController(SimpleNamespace(), SplitConformalClassifier(alpha=ALPHA))


# ----------------------------------------------------------------------
# Alarm discipline (hysteresis + minimum-sample guard)
# ----------------------------------------------------------------------
def test_alarm_waits_for_min_samples():
    ctrl = _controller(DriftConfig(min_samples=20, window=40))
    _feed(ctrl, [_MISSED] * 19)
    assert ctrl.rolling_coverage() == 0.0
    assert not ctrl.alarm_active and ctrl.alarm_count == 0
    _feed(ctrl, [_MISSED])
    assert ctrl.alarm_active and ctrl.alarm_count == 1


def test_alarm_does_not_fire_inside_hysteresis_band():
    # target 0.85, hysteresis 0.05: coverage 0.84 sits inside the dead band.
    ctrl = _controller(DriftConfig(min_samples=50, window=50, hysteresis=0.05))
    _feed(ctrl, [_COVERED] * 42 + [_MISSED] * 8)
    assert ctrl.rolling_coverage() == pytest.approx(0.84)
    assert not ctrl.alarm_active


def test_alarm_fires_below_hysteresis_band():
    ctrl = _controller(DriftConfig(min_samples=50, window=50, hysteresis=0.05))
    _feed(ctrl, [_COVERED] * 39 + [_MISSED] * 11)
    assert ctrl.rolling_coverage() == pytest.approx(0.78)
    assert ctrl.alarm_active and ctrl.alarm_count == 1


def test_alarm_latches_until_coverage_reaches_target():
    ctrl = _controller(DriftConfig(min_samples=10, window=20, hysteresis=0.05))
    _feed(ctrl, [_MISSED] * 20)
    assert ctrl.alarm_active
    # Coverage climbs into the dead band: still latched (no flapping).
    _feed(ctrl, [_COVERED] * 16)
    assert ctrl.rolling_coverage() == pytest.approx(0.8)
    assert ctrl.alarm_active
    # Clearing the target re-arms; the count does not double-increment.
    _feed(ctrl, [_COVERED] * 4)
    assert ctrl.rolling_coverage() >= 1 - ALPHA
    assert not ctrl.alarm_active
    assert ctrl.alarm_count == 1


def test_feedback_batch_shape_mismatch_raises():
    ctrl = _controller(DriftConfig())
    with pytest.raises(DriftError, match="inconsistent"):
        ctrl.record_feedback(np.zeros((3, 4)), np.zeros(2), np.zeros(3, dtype=int))
    with pytest.raises(DriftError, match="at least one"):
        ctrl.record_feedback(np.zeros((0, 4)), np.zeros(0), np.zeros(0, dtype=int))


@pytest.mark.parametrize(
    "bad_row",
    [
        np.array([0.1, np.nan, 0.3, 0.4]),
        np.array([0.1, 0.2, np.inf, 0.4]),
        np.zeros(7),
        np.zeros(3),
    ],
    ids=["nan", "inf", "too-wide", "too-narrow"],
)
def test_feedback_rejects_a_malformed_row_before_recording_anything(bad_row):
    """A bad row must not reach the buffer, where it would fail every later
    adapt() until it rolled out; the valid rows of its batch are refused too."""
    ctrl = _controller(DriftConfig(min_refit_samples=4, min_samples=4, window=8))
    _feed(ctrl, [_COVERED] * 4)

    def state():
        return (
            ctrl.rolling_coverage(),
            ctrl.buffered_samples,
            ctrl.feedback_count,
            ctrl.alarm_active,
            ctrl.alarm_count,
        )

    before = state()
    # Recorded, these two misses would fire the alarm (coverage 4/6).
    batch = np.vstack([np.zeros(bad_row.size), bad_row])
    with pytest.raises(DriftError):
        ctrl.record_feedback(batch, np.full(2, _MISSED[0]), np.array([0, 0]))
    assert state() == before
    # A single malformed row (1-D) is refused the same way.
    with pytest.raises(DriftError):
        ctrl.record_feedback(bad_row, np.full(1, _MISSED[0]), np.array([0]))
    assert state() == before


def test_feedback_after_a_refused_batch_records_normally():
    ctrl = _controller(DriftConfig(min_refit_samples=4, min_samples=4, window=8))
    with pytest.raises(DriftError):
        ctrl.record_feedback(
            np.full((2, 4), np.nan), np.zeros(2), np.zeros(2, dtype=int)
        )
    assert ctrl.feedback_count == 0 and ctrl.buffered_samples == 0
    _feed(ctrl, [_COVERED] * 3 + [_MISSED])
    assert ctrl.feedback_count == 4 and ctrl.buffered_samples == 4
    assert ctrl.rolling_coverage() == pytest.approx(0.75)


# ----------------------------------------------------------------------
# Adaptation guards
# ----------------------------------------------------------------------
def test_adapt_requires_min_refit_samples():
    ctrl = _controller(DriftConfig(min_refit_samples=10))
    _feed(ctrl, [_COVERED] * 5)
    with pytest.raises(DriftError, match="min_refit_samples"):
        ctrl.adapt()


def test_adapt_requires_both_classes():
    ctrl = _controller(DriftConfig(min_refit_samples=4))
    _feed(ctrl, [_COVERED] * 8)  # every label is 1
    with pytest.raises(DriftError, match="single class"):
        ctrl.adapt()


def test_adapt_requires_landmark_rows():
    ctrl = _controller(DriftConfig(min_refit_samples=4))
    _feed(ctrl, [_COVERED] * 4 + [_MISSED] * 4)
    with pytest.raises(DriftError, match="landmark rows"):
        ctrl.adapt()


# ----------------------------------------------------------------------
# End-to-end drift injection (engine-backed, seeded scenarios)
# ----------------------------------------------------------------------
def _fitted_stack(scenario, drift_config: DriftConfig):
    engine = QuantumKernelInferenceEngine(
        ANSATZ, approximation=NystroemConfig(num_landmarks=10, seed=0)
    )
    engine.fit(scenario.X_train, scenario.y_train)
    conformal = SplitConformalClassifier(alpha=ALPHA).calibrate(
        engine.decision_function(scenario.X_calib), scenario.y_calib
    )
    controller = DriftController(
        engine.streaming_classifier(), conformal, config=drift_config
    )
    return engine, controller


# The alarm band is sized to the window's binomial noise: with alpha 0.15
# and 160-sample windows the coverage estimate has sd ~0.028, so a 0.10
# hysteresis puts the fire threshold ~3.5 sigma below the target -- wide
# enough that exchangeable traffic never trips it, narrow enough that the
# injected shifts (which push window coverage to 0.4-0.6) fire within ~70
# post-changepoint points.
_E2E_CONFIG = DriftConfig(
    hysteresis=0.10,
    window=160,
    min_samples=80,
    buffer_size=256,
    min_refit_samples=60,
    calibration_fraction=0.3,
    max_new_landmarks=8,
    reconstruction_bound=0.02,
    seed=0,
)


def _scenario(drifted_stream, kind):
    return drifted_stream(
        kind=kind, calib_size=100, stream_size=600, changepoint=120
    )


@pytest.mark.slow
def test_alarm_never_fires_under_iid_traffic(drifted_stream):
    scenario = _scenario(drifted_stream, "iid")
    engine, controller = _fitted_stack(scenario, _E2E_CONFIG)
    for i in range(0, scenario.X_stream.shape[0], 20):
        rows = scenario.X_stream[i : i + 20]
        labels = scenario.y_stream[i : i + 20]
        controller.record_feedback(rows, engine.decision_function(rows), labels)
    assert controller.alarm_count == 0
    assert not controller.alarm_active
    assert controller.rolling_coverage() >= 1 - ALPHA - _E2E_CONFIG.hysteresis


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["covariate", "label"])
def test_alarm_fires_after_injected_shift(drifted_stream, kind):
    scenario = _scenario(drifted_stream, kind)
    engine, controller = _fitted_stack(scenario, _E2E_CONFIG)
    fired_at = None
    for i in range(0, scenario.X_stream.shape[0], 10):
        rows = scenario.X_stream[i : i + 10]
        labels = scenario.y_stream[i : i + 10]
        controller.record_feedback(rows, engine.decision_function(rows), labels)
        if controller.alarm_active:
            fired_at = i + 10
            break
    assert fired_at is not None, f"alarm never fired under {kind} shift"
    # Shift injection starts at the changepoint; a pre-changepoint alarm
    # would be a false positive on exchangeable traffic.
    assert fired_at > scenario.changepoint


class _Traffic:
    """Serves stream slices through a queue and feeds the answers back."""

    def __init__(self, queue, controller):
        self.queue = queue
        self.controller = controller
        self.submitted = 0
        self.resolved = 0
        self.versions = []

    def serve(self, rows, labels, chunk=10):
        for j in range(0, len(rows), chunk):
            part_rows, part_labels = rows[j : j + chunk], labels[j : j + chunk]
            futures = self.queue.submit_many(part_rows)
            self.submitted += len(futures)
            self.queue.flush()
            results = [f.result(timeout=60) for f in futures]
            self.resolved += len(results)
            self.versions.extend(r.model_version for r in results)
            self.controller.record_feedback(
                part_rows,
                np.array([r.decision_value for r in results]),
                part_labels,
            )


def _serve_until_adaptable(traffic, scenario) -> None:
    """Exchangeable head, then shifted traffic through row 400.

    The alarm must stay silent on the head and latch on the shift; the
    rows after the alarm fill the buffer with shifted refit material.
    """
    controller = traffic.controller
    traffic.serve(scenario.X_stream[:120], scenario.y_stream[:120])
    assert controller.alarm_count == 0

    i = scenario.changepoint
    while i < 400 and not controller.alarm_active:
        traffic.serve(scenario.X_stream[i : i + 10], scenario.y_stream[i : i + 10])
        i += 10
    assert controller.alarm_active, "alarm never fired under covariate shift"
    assert controller.rolling_coverage() < 1 - ALPHA - _E2E_CONFIG.hysteresis
    traffic.serve(scenario.X_stream[i:400], scenario.y_stream[i:400])


def _drift_stack(drifted_stream):
    scenario = _scenario(drifted_stream, "covariate")
    engine, _ = _fitted_stack(scenario, _E2E_CONFIG)
    conformal = SplitConformalClassifier(alpha=ALPHA).calibrate(
        engine.decision_function(scenario.X_calib), scenario.y_calib
    )
    return scenario, engine, conformal


@pytest.mark.slow
def test_coverage_recovers_after_adaptation_and_swap(drifted_stream):
    """The acceptance loop: dip -> alarm -> shadow fit -> swap -> recover.

    Serving runs through the async queue the whole time, and a background
    thread keeps submitting while the shadow fit and swap run: every
    request must resolve (zero dropped), pre-swap answers carry model
    version 0 and post-swap answers version 1.
    """
    scenario, engine, conformal = _drift_stack(drifted_stream)

    with engine.serving_queue(max_batch=8) as queue:
        controller = DriftController(
            engine.streaming_classifier(),
            conformal,
            target=queue,
            config=_E2E_CONFIG,
        )
        traffic = _Traffic(queue, controller)
        _serve_until_adaptable(traffic, scenario)

        # Traffic keeps flowing while the adaptation runs.
        during_swap = []
        swap_rows = scenario.X_stream[400:432]

        def submit_during_swap():
            futures = [queue.submit(row) for row in swap_rows]
            queue.flush()
            during_swap.extend(f.result(timeout=60) for f in futures)

        submitter = threading.Thread(target=submit_during_swap)
        submitter.start()
        adaptation = controller.adapt()
        submitter.join(timeout=60)
        assert not submitter.is_alive()
        assert len(during_swap) == len(swap_rows)
        assert {r.model_version for r in during_swap} <= {0, 1}

        assert queue.model_version == adaptation.version == 1
        assert queue.swap_count == 1
        assert adaptation.new_num_landmarks > adaptation.old_num_landmarks
        assert adaptation.refit_iterations >= 1
        assert not controller.alarm_active

        # Post-swap traffic from the shifted distribution: coverage must
        # recover to the conformal target (within the 0.02 gate) because the
        # quantile was recalibrated on held-out fresh samples.
        traffic.serve(scenario.X_stream[432:], scenario.y_stream[432:])
        recovered = controller.rolling_coverage()
        assert recovered >= 1 - ALPHA - 0.02, (
            f"coverage {recovered:.3f} below recovery gate after adaptation"
        )

    versions = traffic.versions
    assert traffic.submitted == traffic.resolved > 0  # zero dropped requests
    assert set(versions) == {0, 1}
    # Version stamps are monotone: once the swap lands no answer regresses.
    first_v1 = versions.index(1)
    assert all(v == 1 for v in versions[first_v1:])
    assert controller.refit_count == 1 and controller.swap_count == 1


@pytest.mark.slow
def test_frozen_basis_refresh_swaps_without_growing(drifted_stream):
    """A routine refresh (``max_new_landmarks=0``) after an adaptation.

    It refits and recalibrates on post-swap traffic over the same landmark
    basis, installs version 2, and drops no request; the drift families
    of the metrics registry count both cycles.
    """
    scenario, engine, conformal = _drift_stack(drifted_stream)

    with engine.serving_queue(max_batch=8) as queue:
        controller = DriftController(
            engine.streaming_classifier(),
            conformal,
            target=queue,
            config=_E2E_CONFIG,
        )
        registry = MetricsRegistry()
        bind_drift_controller(registry, controller)
        traffic = _Traffic(queue, controller)
        _serve_until_adaptable(traffic, scenario)
        grown = controller.adapt()
        traffic.serve(scenario.X_stream[400:], scenario.y_stream[400:])

        controller.config = dataclasses.replace(_E2E_CONFIG, max_new_landmarks=0)
        refresh = controller.adapt()
        assert refresh.old_num_landmarks == grown.new_num_landmarks
        assert refresh.new_num_landmarks == grown.new_num_landmarks
        assert refresh.num_candidates == 0
        assert queue.model_version == refresh.version == 2
        assert queue.swap_count == 2 and controller.swap_count == 2

        # Answers after the refresh come from the new generation.
        traffic.serve(scenario.X_stream[400:420], scenario.y_stream[400:420])
        assert traffic.versions[-20:] == [2] * 20

    assert traffic.submitted == traffic.resolved > 0  # zero dropped requests
    snapshot = registry.to_dict()
    for name, value in (
        ("repro_drift_alarms_total", 1),
        ("repro_drift_refits_total", 2),
        ("repro_drift_swaps_total", 2),
    ):
        assert snapshot[name]["series"][0]["value"] == value, name
