"""Integration tests: endpoint, bindings, tracing and the disabled contract."""

import json
from urllib.error import HTTPError
from urllib.request import urlopen

import numpy as np
import pytest

from repro.approx import NystroemConfig
from repro.config import AnsatzConfig
from repro.core import QuantumKernelInferenceEngine
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like
from repro.exceptions import SVMError, TelemetryError
from repro.svm import SplitConformalClassifier
from repro.telemetry import (
    TRACER,
    MetricsRegistry,
    TelemetryServer,
    attach_endpoint,
    bind_classifier_coverage,
    parse_prometheus_text,
)

ANSATZ = AnsatzConfig(num_features=4, interaction_distance=1, layers=1, gamma=0.6)


@pytest.fixture(scope="module")
def served_engine():
    data = balanced_subsample(
        generate_elliptic_like(DatasetSpec(num_samples=400, num_features=4, seed=31)),
        20,
        seed=2,
    )
    engine = QuantumKernelInferenceEngine(
        ANSATZ, approximation=NystroemConfig(num_landmarks=6, seed=0)
    )
    engine.fit(data.features, data.labels)
    return engine


@pytest.fixture(scope="module")
def payload(served_engine):
    return served_engine.serving_payload()


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(53)
    return rng.normal(size=(10, 4))


@pytest.fixture()
def tracing():
    """Enable the global tracer for one test, restoring the disabled default."""
    TRACER.reset()
    TRACER.enable()
    yield TRACER
    TRACER.disable()
    TRACER.reset()


def _get_json(url):
    with urlopen(url) as response:
        return json.loads(response.read().decode("utf-8")), response.status


def _get_text(url):
    with urlopen(url) as response:
        return response.read().decode("utf-8"), response.headers.get("Content-Type")


# ----------------------------------------------------------------------
# /metrics against a live queue
# ----------------------------------------------------------------------
def test_queue_endpoint_serves_parseable_metrics(served_engine, queries):
    with served_engine.serving_queue(max_batch=4) as queue:
        with attach_endpoint(queue) as server:
            futures = [queue.submit(row) for row in queries]
            queue.flush()
            [f.result(timeout=10) for f in futures]

            body, content_type = _get_text(server.url + "/metrics")
            assert "version=0.0.4" in content_type
            families = parse_prometheus_text(body)  # strict: raises if malformed
            # The acceptance surface: latency histogram, store counters,
            # encode counters, serving counters.
            for name in (
                "repro_serving_request_latency_seconds",
                "repro_serving_requests_total",
                "repro_serving_batches_total",
                "repro_serving_batch_size",
                "repro_store_hits_total",
                "repro_store_misses_total",
                "repro_store_evictions_total",
                "repro_encode_batches_total",
                "repro_backend_simulations_total",
            ):
                assert name in families, name
            requests = {
                tuple(sorted(labels.items())): value
                for name, labels, value in families["repro_serving_requests_total"]["samples"]
            }
            assert requests[(("replica", "0"),)] == len(queries)
            hist = families["repro_serving_request_latency_seconds"]
            counts = [
                value for name, _, value in hist["samples"] if name.endswith("_count")
            ]
            assert counts == [len(queries)]


def test_queue_health_reflects_lifecycle(served_engine):
    queue = served_engine.serving_queue(max_batch=4)
    with attach_endpoint(queue) as server:
        health, status = _get_json(server.url + "/health")
        assert status == 200
        assert health["status"] == "ok"
        queue.close()
        with pytest.raises(HTTPError) as err:
            _get_json(server.url + "/health")
        assert err.value.code == 503
        assert json.loads(err.value.read().decode())["status"] == "down"


def test_unknown_path_is_404(served_engine):
    with served_engine.serving_queue(max_batch=4) as queue:
        with attach_endpoint(queue) as server:
            with pytest.raises(HTTPError) as err:
                urlopen(server.url + "/nope")
            assert err.value.code == 404


def test_attach_endpoint_rejects_unknown_targets():
    with pytest.raises(TelemetryError):
        attach_endpoint(object())


# ----------------------------------------------------------------------
# Tracing through the serving stack
# ----------------------------------------------------------------------
def test_traced_request_yields_linked_span_tree(served_engine, queries, tracing):
    with served_engine.serving_queue(max_batch=len(queries)) as queue:
        futures = [queue.submit(row) for row in queries]
        queue.flush()
        [f.result(timeout=10) for f in futures]

    # The flush span lives in the oldest coalesced request's trace and links
    # the other requests' roots; find that trace.
    flush_traces = [
        trace
        for trace in tracing.recent_traces(limit=64)
        if any(s["name"] == "serving.flush" for s in trace["spans"])
    ]
    assert flush_traces
    spans = {s["name"]: s for s in flush_traces[0]["spans"]}
    # The acceptance criterion: >= 4 linked phases in one tree.
    for name in (
        "serving.request",
        "serving.wait",
        "serving.flush",
        "serving.score",
        "engine.encode",
        "engine.overlap",
    ):
        assert name in spans, name
    root = spans["serving.request"]
    assert root["parent_id"] is None
    assert spans["serving.wait"]["parent_id"] == root["span_id"]
    assert spans["serving.flush"]["parent_id"] == root["span_id"]
    assert spans["serving.score"]["parent_id"] == spans["serving.flush"]["span_id"]
    assert spans["engine.encode"]["parent_id"] == spans["serving.score"]["span_id"]
    # The flush links every other coalesced request's root span.
    assert len(spans["serving.flush"]["links"]) == len(queries) - 1


def test_traces_endpoint_serves_json_and_text(served_engine, queries, tracing):
    with served_engine.serving_queue(max_batch=4) as queue:
        with attach_endpoint(queue) as server:
            futures = [queue.submit(row) for row in queries[:4]]
            queue.flush()
            [f.result(timeout=10) for f in futures]

            dump, _ = _get_json(server.url + "/traces/recent?limit=3")
            assert dump["enabled"] is True
            assert 1 <= len(dump["traces"]) <= 3
            assert all(t["num_spans"] >= 1 for t in dump["traces"])

            text, content_type = _get_text(
                server.url + "/traces/recent?limit=2&format=text"
            )
            assert content_type.startswith("text/plain")
            assert "serving.request" in text

            with pytest.raises(HTTPError) as err:
                urlopen(server.url + "/traces/recent?limit=zero")
            assert err.value.code == 400


def test_traces_endpoint_without_tracer_reports_disabled(served_engine):
    with served_engine.serving_queue(max_batch=4) as queue:
        registry = MetricsRegistry()
        with TelemetryServer(registry, tracer=None) as server:
            dump, _ = _get_json(server.url + "/traces/recent")
            assert dump == {"enabled": False, "traces": []}


# ----------------------------------------------------------------------
# The disabled contract: byte-identical predictions, no recorded traces
# ----------------------------------------------------------------------
def test_disabled_telemetry_leaves_predictions_byte_identical(
    served_engine, queries
):
    assert TRACER.enabled is False  # the module default

    def serve():
        with served_engine.serving_queue(max_batch=4) as queue:
            futures = [queue.submit(row) for row in queries]
            queue.flush()
            return [f.result(timeout=10) for f in futures]

    baseline = serve()
    TRACER.reset()
    TRACER.enable()
    try:
        traced = serve()
    finally:
        TRACER.disable()
        TRACER.reset()
    untraced = serve()

    base_bytes = np.array([r.decision_value for r in baseline]).tobytes()
    assert np.array([r.decision_value for r in traced]).tobytes() == base_bytes
    assert np.array([r.decision_value for r in untraced]).tobytes() == base_bytes
    assert [r.prediction for r in traced] == [r.prediction for r in baseline]


def test_disabled_tracer_records_nothing(served_engine, queries):
    TRACER.reset()
    with served_engine.serving_queue(max_batch=4) as queue:
        futures = [queue.submit(row) for row in queries[:4]]
        queue.flush()
        [f.result(timeout=10) for f in futures]
    assert TRACER.trace_ids() == []


# ----------------------------------------------------------------------
# Rolling conformal coverage
# ----------------------------------------------------------------------
def test_conformal_coverage_gauge(served_engine, queries):
    clf = served_engine.streaming_classifier()
    calibration = served_engine.streaming_classifier().classify(queries)
    conformal = SplitConformalClassifier(alpha=0.2).calibrate(
        calibration.decision_values,
        (calibration.decision_values > 0).astype(int),
    )
    clf.attach_conformal(conformal, window=64)

    registry = MetricsRegistry()
    bind_classifier_coverage(registry, clf)
    snapshot = registry.to_dict()
    assert snapshot["repro_conformal_feedback_total"]["series"][0]["value"] == 0

    result = clf.classify(queries)
    coverage = clf.record_feedback(
        result.decision_values, (result.decision_values > 0).astype(int)
    )
    assert 0.0 <= coverage <= 1.0
    assert clf.rolling_coverage() == pytest.approx(coverage)

    snapshot = registry.to_dict()
    assert snapshot["repro_conformal_feedback_total"]["series"][0]["value"] == len(
        queries
    )
    gauge = snapshot["repro_conformal_rolling_coverage"]["series"][0]["value"]
    assert gauge == pytest.approx(clf.rolling_coverage())


def test_record_feedback_requires_attachment(served_engine, queries):
    clf = served_engine.streaming_classifier()
    with pytest.raises(SVMError):
        clf.record_feedback(np.zeros(3), [0, 1, 0])
    conformal = SplitConformalClassifier(alpha=0.2).calibrate(
        np.array([1.0, -1.0, 2.0, -2.0]), np.array([1, 0, 1, 0])
    )
    clf.attach_conformal(conformal)
    assert clf.rolling_coverage() is None
    with pytest.raises(SVMError):
        clf.record_feedback(np.zeros(2), [0])  # length mismatch
    with pytest.raises(SVMError):
        clf.record_feedback(np.zeros(0), [])  # empty batch
