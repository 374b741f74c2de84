"""Unit tests for the one-call serving surface: repro.serve() / ServingHandle."""

import threading
import urllib.request

import numpy as np
import pytest

import repro
from repro.approx import NystroemConfig
from repro.config import AnsatzConfig, ServingConfig, TuningConfig
from repro.core import QuantumKernelInferenceEngine
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like
from repro.exceptions import ServingError
from repro.serving import ServingHandle, resolve_serving_payload, serve

ANSATZ = AnsatzConfig(num_features=4, interaction_distance=1, layers=1, gamma=0.6)


def _fit_engine(landmark_seed=0):
    data = balanced_subsample(
        generate_elliptic_like(DatasetSpec(num_samples=400, num_features=4, seed=31)),
        20,
        seed=2,
    )
    engine = QuantumKernelInferenceEngine(
        ANSATZ, approximation=NystroemConfig(num_landmarks=6, seed=landmark_seed)
    )
    engine.fit(data.features, data.labels)
    return engine


@pytest.fixture(scope="module")
def served_engine():
    return _fit_engine()


@pytest.fixture(scope="module")
def payload(served_engine):
    return served_engine.serving_payload()


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(53)
    return rng.normal(size=(8, 4))


# ----------------------------------------------------------------------
# Payload resolution
# ----------------------------------------------------------------------
def test_resolve_accepts_mappings_and_payload_objects(served_engine, payload):
    assert resolve_serving_payload(payload) == payload
    from_engine = resolve_serving_payload(served_engine)
    assert from_engine.keys() == payload.keys()
    with pytest.raises(ServingError, match="serving_payload"):
        resolve_serving_payload(42)


# ----------------------------------------------------------------------
# The handle surface
# ----------------------------------------------------------------------
def test_serve_is_exported_at_top_level():
    assert repro.serve is serve
    assert repro.ServingHandle is ServingHandle


def test_serve_round_trips_predictions(served_engine, payload, queries):
    reference = served_engine.streaming_classifier().classify(queries)
    config = ServingConfig(
        tuning=TuningConfig(max_batch=4, max_wait_ms=2.0), num_replicas=2
    )
    with serve(payload, config) as handle:
        futures = handle.submit_many(queries)
        results = [f.result(timeout=60) for f in futures]
        single = handle.predict(queries[0])
    decisions = np.array([r.decision_value for r in results])
    assert np.array_equal(decisions, reference.decision_values)
    assert single.decision_value == reference.decision_values[0]


@pytest.mark.parametrize("bad_value", [np.nan, np.inf])
def test_non_finite_row_is_rejected_at_admission(payload, queries, bad_value):
    """One poisoned row raises at submit; the rows sent with it are unharmed."""
    poisoned = queries[1].copy()
    poisoned[2] = bad_value
    valid = [queries[0], queries[2], queries[3]]
    # A long deadline holds the valid rows in one pending batch until flush.
    config = ServingConfig(tuning=TuningConfig(max_batch=8, max_wait_ms=10_000.0))
    with serve(payload, config, memoize=False) as handle:
        futures = [handle.submit(valid[0])]
        with pytest.raises(ServingError, match="NaN or infinite"):
            handle.submit(poisoned)
        futures += handle.submit_many(valid[1:])
        handle.flush()
        served = np.array([f.result(timeout=60).decision_value for f in futures])
    with serve(payload, config, memoize=False) as handle:
        futures = handle.submit_many(valid)
        handle.flush()
        clean = np.array([f.result(timeout=60).decision_value for f in futures])
    assert served.tobytes() == clean.tobytes()


def _flush_returns(handle, timeout=30.0):
    """Run ``handle.flush()`` in a helper thread; True if it returned in time."""
    flusher = threading.Thread(target=handle.flush, daemon=True)
    flusher.start()
    flusher.join(timeout)
    return not flusher.is_alive()


def test_cancelled_request_leaves_the_coalescer_serving(
    served_engine, payload, queries
):
    """A request cancelled while it waits is dropped; every other request of
    its batch, and every later one, still resolves byte-identical to
    classify(), and flush() returns."""
    rows = queries[:4]
    reference = served_engine.streaming_classifier().classify(rows)
    # A long deadline holds all four rows in one pending batch until flush.
    config = ServingConfig(tuning=TuningConfig(max_batch=8, max_wait_ms=10_000.0))
    with serve(payload, config) as handle:
        futures = handle.submit_many(rows)
        assert futures[1].cancel()
        assert _flush_returns(handle)
        for i in (0, 2, 3):
            served = futures[i].result(timeout=30)
            assert served.decision_value == reference.decision_values[i]
            assert served.prediction == reference.predictions[i]
        later = handle.submit(rows[1])
        assert _flush_returns(handle)
        assert later.result(timeout=30).decision_value == reference.decision_values[1]
        assert _flush_returns(handle)


def test_serve_accepts_a_model_object_directly(served_engine, queries):
    with serve(served_engine) as handle:
        assert handle.predict(queries[0]).prediction in (0, 1)
        # Default config: one replica, static policy, no endpoint.
        assert handle.config.control_policy == "static"
        assert handle.router.num_replicas == 1
        assert handle.url is None


def test_metrics_view_carries_a_control_section(payload, queries):
    with serve(payload) as handle:
        handle.predict(queries[0])
        handle.controller.step()
        view = handle.metrics()
    assert view["total_routed"] == 1
    control = view["control"]
    assert control["policy"] == "static"
    assert control["step_count"] == 1
    assert control["knobs"]["max_batch"] == TuningConfig().max_batch


def test_swap_rolls_a_new_model_across_the_fleet(payload, queries):
    replacement = _fit_engine(landmark_seed=5)
    expected = replacement.streaming_classifier().classify(queries)
    with serve(payload, ServingConfig(num_replicas=2)) as handle:
        before = handle.predict(queries[0])
        assert handle.model_version == 0
        version = handle.swap(replacement)  # model object, not payload
        assert version == 1 and handle.model_version == 1
        after = [handle.predict(q) for q in queries]
    assert all(r.model_version == 1 for r in after)
    decisions = np.array([r.decision_value for r in after])
    assert np.array_equal(decisions, expected.decision_values)
    assert before.model_version == 0


def test_handle_close_is_idempotent_and_final(payload, queries):
    handle = serve(payload)
    handle.predict(queries[0])
    handle.close()
    handle.close()  # second close is a no-op
    with pytest.raises(ServingError):
        handle.submit(queries[0])


# ----------------------------------------------------------------------
# Controller integration
# ----------------------------------------------------------------------
def test_serve_wires_the_configured_control_policy(payload, queries):
    config = ServingConfig(
        tuning=TuningConfig(max_batch=4, batch_ceiling=64),
        control_policy="depth-proportional",
    )
    with serve(payload, config) as handle:
        assert handle.controller.policy.name == "depth-proportional"
        assert handle.controller.bounds is config.tuning
        handle.predict(queries[0])
        decision = handle.controller.step()
    assert decision.policy == "depth-proportional"


def test_control_interval_runs_the_loop_in_the_background(payload):
    config = ServingConfig(control_interval_s=0.005)
    with serve(payload, config) as handle:
        deadline = 200
        while handle.controller.step_count == 0 and deadline:
            deadline -= 1
            import time

            time.sleep(0.005)
        assert handle.controller.step_count > 0
    # close() stopped the loop thread.
    assert handle.controller._loop_thread is None


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
def test_telemetry_endpoint_exports_the_control_families(payload, queries):
    with serve(payload, telemetry=True) as handle:
        assert handle.url is not None
        handle.predict(queries[0])
        handle.controller.step()
        with urllib.request.urlopen(handle.url + "/metrics", timeout=10) as resp:
            text = resp.read().decode()
    assert 'repro_control_knob{knob="max_batch"}' in text
    assert "repro_control_steps_total 1" in text
    assert 'repro_control_policy{policy="static"} 1' in text
    assert "repro_control_recommended_replicas" in text
    # The serving families ride along on the same registry.
    assert "repro_router_routed_total" in text
