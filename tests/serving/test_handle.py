"""Unit tests for the one-call serving surface: repro.serve() / ServingHandle."""

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro
from repro.approx import NystroemConfig
from repro.config import AnsatzConfig, ServingConfig
from repro.core import QuantumKernelInferenceEngine
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like
from repro.exceptions import ConfigurationError, ServingError
from repro.profiling import ServingMetrics
from repro.serving import ServingHandle, resolve_serving_payload, serve
from repro.telemetry import parse_prometheus_text

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
    config = ServingConfig(max_batch=4)
    with serve(payload, config) as handle:
        futures = handle.submit_many(queries)
        results = [f.result(timeout=60) for f in futures]
        single = handle.predict(queries[0])
    decisions = np.array([r.decision_value for r in results])
    assert np.array_equal(decisions, reference.decision_values)
    assert single.decision_value == reference.decision_values[0]


@pytest.mark.parametrize("bad_value", [np.nan, np.inf])
def test_non_finite_row_is_rejected_at_admission(
    payload, queries, bad_value, coalescer_gate
):
    """One poisoned row raises at submit; the rows sent with it are unharmed."""
    poisoned = queries[1].copy()
    poisoned[2] = bad_value
    valid = [queries[0], queries[2], queries[3]]
    config = ServingConfig(max_batch=8)
    with serve(payload, config, memoize=False) as handle:
        # A stalled coalescer holds the valid rows in one pending batch.
        coalescer_gate.stall(handle.queue)
        futures = [handle.submit(valid[0])]
        with pytest.raises(ServingError, match="NaN or infinite"):
            handle.submit(poisoned)
        futures += handle.submit_many(valid[1:])
        coalescer_gate.release()
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
    served_engine, payload, queries, coalescer_gate
):
    """A request cancelled while it waits is dropped; every other request of
    its batch, and every later one, still resolves byte-identical to
    classify(), and flush() returns."""
    rows = queries[:4]
    reference = served_engine.streaming_classifier().classify(rows)
    config = ServingConfig(max_batch=8)
    with serve(payload, config) as handle:
        # A stalled coalescer holds all four rows in one pending batch.
        coalescer_gate.stall(handle.queue)
        futures = handle.submit_many(rows)
        assert futures[1].cancel()
        coalescer_gate.release()
        assert _flush_returns(handle)
        for i in (0, 2, 3):
            served = futures[i].result(timeout=30)
            assert served.decision_value == reference.decision_values[i]
            assert served.prediction == reference.predictions[i]
        later = handle.submit(rows[1])
        assert _flush_returns(handle)
        assert later.result(timeout=30).decision_value == reference.decision_values[1]
        assert _flush_returns(handle)


def _record_batch_raising_once(monkeypatch):
    """Make the next ``ServingMetrics.record_batch`` raise, once."""
    record_batch = ServingMetrics.record_batch
    raised = []

    def record_batch_once(self, *args):
        if not raised:
            raised.append(True)
            raise RuntimeError("metrics sink down")
        return record_batch(self, *args)

    monkeypatch.setattr(ServingMetrics, "record_batch", record_batch_once)


# The coalescer thread re-raises its failure for threading.excepthook.
@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_coalescer_failure_closes_the_queue_and_reports_down(
    payload, queries, monkeypatch
):
    """A raise outside a batch's scoring ends the coalescer thread: the queue
    closes instead of hanging, so a later request is refused at once,
    /health reports down, and flush() and close() return."""
    _record_batch_raising_once(monkeypatch)
    with serve(payload, telemetry=True) as handle:
        queue = handle.queue
        assert handle.submit(queries[0]).result(timeout=30).prediction in (0, 1)
        deadline = time.monotonic() + 10.0
        while not queue.closed and time.monotonic() < deadline:
            time.sleep(0.001)
        assert queue.closed
        with pytest.raises(ServingError):
            handle.submit(queries[1])
        with pytest.raises(urllib.error.HTTPError) as health:
            urllib.request.urlopen(handle.url + "/health", timeout=10)
        assert health.value.code == 503
        assert json.loads(health.value.read())["status"] == "down"
        assert _flush_returns(handle)


# The coalescer thread re-raises its failure for threading.excepthook.
@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_coalescer_failure_fails_every_pending_future(
    payload, queries, monkeypatch, coalescer_gate
):
    """Requests queued behind the flush whose bookkeeping raises fail with a
    ServingError chained to the cause; none waits forever."""
    _record_batch_raising_once(monkeypatch)
    with serve(payload) as handle:
        queue = handle.queue
        sentinel = coalescer_gate.stall(queue)
        pending = handle.submit_many(queries[:3])
        coalescer_gate.release()
        # The stalled flush resolves its own request before the raise.
        assert sentinel.result(timeout=30).prediction in (0, 1)
        for future in pending:
            error = future.exception(timeout=30)
            assert isinstance(error, ServingError)
            assert isinstance(error.__cause__, RuntimeError)
        assert queue.closed
        assert _flush_returns(handle)


def test_serve_accepts_a_model_object_directly(served_engine, queries):
    with serve(served_engine) as handle:
        assert handle.predict(queries[0]).prediction in (0, 1)
        # Default config: no durable tier, no endpoint.
        assert handle.store is None and handle.warm_up_report is None
        assert handle.queue.max_batch == ServingConfig().max_batch
        assert handle.url is None


def test_swap_installs_a_new_model(payload, queries):
    replacement = _fit_engine(landmark_seed=5)
    expected = replacement.streaming_classifier().classify(queries)
    with serve(payload) as handle:
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
# Telemetry
# ----------------------------------------------------------------------
def test_telemetry_endpoint_exports_the_serving_families(payload, queries):
    with serve(payload, telemetry=True) as handle:
        assert handle.url is not None
        handle.predict(queries[0])
        with urllib.request.urlopen(handle.url + "/metrics", timeout=10) as resp:
            text = resp.read().decode()
    assert "repro_serving_requests_total" in text
    assert "repro_backend_simulations_total" in text


def _simulations_exported(url):
    """``repro_backend_simulations_total`` summed over its series, scraped."""
    with urllib.request.urlopen(url + "/metrics", timeout=10) as resp:
        families = parse_prometheus_text(resp.read().decode())
    samples = families["repro_backend_simulations_total"]["samples"]
    return sum(value for _, _, value in samples)


def test_exported_simulations_follow_the_engine_across_a_swap(payload, queries):
    """After a swap, k cold rows raise the exported simulation counter by k:
    /metrics reads the engine that serves, and the counter never falls."""
    cold = np.random.default_rng(101).normal(size=(3, 4))
    with serve(payload, telemetry=True) as handle:
        handle.submit_many(queries[:4])
        handle.flush()
        before = _simulations_exported(handle.url)
        assert before >= 4
        handle.swap(payload)
        handle.submit_many(cold)
        handle.flush()
        after = _simulations_exported(handle.url)
    assert after - before == len(cold)


def test_swap_refuses_a_payload_of_another_simulation_config(payload):
    other = dict(payload)
    other["simulation_kwargs"] = dict(payload["simulation_kwargs"], max_bond_dim=2)
    with serve(payload) as handle:
        with pytest.raises(ConfigurationError, match="max_bond_dim"):
            handle.swap(other)
        assert handle.model_version == 0


def test_close_with_snapshot_stops_a_service_without_a_durable_tier(payload, queries):
    """close(snapshot=True) without snapshot_root raises, but only after the
    queue and the endpoint have stopped: nothing keeps serving behind it."""
    handle = serve(payload, telemetry=True)
    handle.predict(queries[0])
    url = handle.url
    with pytest.raises(ServingError, match="durable tier"):
        handle.close(snapshot=True)
    assert handle.queue.closed
    assert not handle.queue._thread.is_alive()
    with pytest.raises(ServingError):
        handle.submit(queries[1])
    with pytest.raises(urllib.error.URLError):
        urllib.request.urlopen(url + "/health", timeout=5)


def test_serve_builds_the_service_from_its_config(payload, queries, tmp_path):
    config = ServingConfig(
        max_batch=4, snapshot_root=str(tmp_path / "tier"), memoize=False
    )
    with serve(payload, config, memo_capacity=8) as handle:
        engine = handle.queue.classifier.feature_map.engine
        assert handle.queue.max_batch == 4
        assert not handle.queue.memoize and handle.queue.memo_capacity == 8
        assert engine.store is handle.store
        assert handle.store.fingerprint == engine.fingerprint
        assert handle.warm_up_report.available == 0
        assert handle.predict(queries[0]).prediction in (0, 1)


def test_handle_exposes_its_queue_to_the_benchmark_readers(payload, queries):
    """perfbench reads ``handle.router.queues[0]`` and passes ``workers=0``."""
    with serve(payload, ServingConfig(), workers=0) as handle:
        assert handle.router.queues[0] is handle.queue
        assert handle.predict(queries[0]).prediction in (0, 1)


def test_metrics_report_the_queue_and_the_warm_hit_ratio(payload, queries):
    """Replaying a stream is answered by the memo: n cold lookups, then n
    memo hits, read as a warm-hit ratio of one half."""
    rows = queries[:4]
    with serve(payload, ServingConfig(max_batch=8)) as handle:
        assert "warm_hit_ratio" not in handle.metrics()
        for _ in range(2):
            handle.submit_many(rows)
            handle.flush()
        view = handle.metrics()
    assert view["total_requests"] == view["total_enqueued"] == 2 * len(rows)
    assert view["warm_hit_ratio"] == pytest.approx(0.5)


def test_served_row_is_admitted_once(payload, queries, monkeypatch):
    from repro.serving import queue as queue_module

    admitted = []
    admit_row = queue_module.admit_row

    def counting_admit_row(row, expected_features):
        admitted.append(1)
        return admit_row(row, expected_features)

    monkeypatch.setattr(queue_module, "admit_row", counting_admit_row)
    with serve(payload) as handle:
        handle.predict(queries[0])
        assert len(admitted) == 1


BAD_ROWS = {
    "narrow": np.zeros(3),
    "wide": np.zeros(5),
    "nan": np.array([0.1, np.nan, 0.2, 0.3]),
    "inf": np.array([0.1, 0.2, -np.inf, 0.3]),
}


@pytest.mark.parametrize("bad", list(BAD_ROWS), ids=list(BAD_ROWS))
def test_rejected_row_leaves_no_trace(payload, queries, coalescer_gate, bad):
    """A bad row raises ServingError at submit and changes no depth, enqueue
    count or high-water mark; the rows accepted around it all resolve."""

    def queue_state(queue):
        snapshot = queue.metrics.to_dict()
        return (
            queue.pending,
            snapshot["total_enqueued"],
            snapshot["queue_depth_high_water"],
        )

    with serve(payload, ServingConfig(max_batch=1000)) as handle:
        coalescer_gate.stall(handle.queue)
        accepted = handle.submit_many(queries[:3])
        before = queue_state(handle.queue)
        with pytest.raises(ServingError):
            handle.submit(BAD_ROWS[bad])
        assert queue_state(handle.queue) == before
        coalescer_gate.release()
        for future in accepted:
            assert future.result(timeout=60).prediction in (0, 1)


# ----------------------------------------------------------------------
# Durable tier, swap guards and the observed queue depth
# ----------------------------------------------------------------------
def test_snapshot_without_a_durable_tier_raises_and_keeps_serving(payload, queries):
    with serve(payload) as handle:
        with pytest.raises(ServingError, match="durable tier"):
            handle.snapshot()
        assert not handle.queue.closed
        assert handle.predict(queries[0]).prediction in (0, 1)


def test_close_with_snapshot_persists_the_requests_it_drains(
    payload, queries, coalescer_gate, tmp_path
):
    """close(snapshot=True) drains the pending requests first, so the
    snapshot holds their states and a restart serves them warm."""
    rows = queries[:5]
    config = ServingConfig(snapshot_root=str(tmp_path / "tier"))
    handle = serve(payload, config)
    sentinel = coalescer_gate.stall(handle.queue)
    futures = handle.submit_many(rows)
    coalescer_gate.release()
    handle.close(snapshot=True)
    assert all(f.done() for f in futures + [sentinel])
    served = np.array([f.result().decision_value for f in futures])
    with serve(payload, config) as restarted:
        assert restarted.warm_up_report.loaded == len(rows) + 1  # and the sentinel
        engine = restarted.queue.classifier.feature_map.engine
        warm = [f.result(timeout=60) for f in restarted.submit_many(rows)]
        assert engine.backend.num_simulations == 0
    assert np.array([r.decision_value for r in warm]).tobytes() == served.tobytes()


def test_swap_keeps_the_served_backend_and_store(payload, queries, tmp_path):
    config = ServingConfig(snapshot_root=str(tmp_path / "tier"))
    with serve(payload, config) as handle:
        before = handle.queue.classifier.feature_map.engine
        handle.predict(queries[0])
        handle.swap(_fit_engine(landmark_seed=5))
        after = handle.queue.classifier.feature_map.engine
        assert after is not before
        assert after.backend is before.backend
        assert after.store is before.store is handle.store


def test_swap_refuses_a_payload_of_another_backend(payload, queries):
    """A refused swap leaves the old model answering, byte for byte."""
    other = dict(payload, backend_name="gpu")
    with serve(payload) as handle:
        before = handle.predict(queries[0])
        with pytest.raises(ConfigurationError, match="gpu"):
            handle.swap(other)
        after = handle.predict(queries[0])
        assert handle.model_version == 0
    assert after.model_version == 0
    assert after.decision_value == before.decision_value


def test_swap_after_close_is_refused(payload):
    handle = serve(payload)
    handle.close()
    with pytest.raises(ServingError, match="closed"):
        handle.swap(payload)
    assert handle.model_version == 0


def test_queue_depth_high_water_is_observed_not_enforced(
    payload, queries, coalescer_gate
):
    """The high-water mark records the deepest backlog; nothing is shed."""
    with serve(payload, ServingConfig(max_batch=2)) as handle:
        coalescer_gate.stall(handle.queue)
        futures = handle.submit_many(queries)
        assert handle.queue.pending == len(queries)
        coalescer_gate.release()
        handle.flush()
        view = handle.metrics()
    assert all(f.result(timeout=60).prediction in (0, 1) for f in futures)
    assert view["queue_depth_high_water"] == len(queries)
    assert view["total_requests"] == len(queries) + 1  # and the sentinel
