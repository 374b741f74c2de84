"""Integration tests: the endpoint, its bindings and the coverage gauges."""

import json
import socket
from urllib.error import HTTPError, URLError
from urllib.request import urlopen

import numpy as np
import pytest

from repro.approx import NystroemConfig
from repro.config import AnsatzConfig
from repro.core import QuantumKernelInferenceEngine
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like
from repro.exceptions import SVMError, TelemetryError
from repro.svm import SplitConformalClassifier
from repro.serving import AsyncServingQueue
from repro.telemetry import (
    MetricsRegistry,
    TelemetryServer,
    attach_endpoint,
    bind_classifier_coverage,
    bind_drift_controller,
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
            body = json.loads(err.value.read().decode())
            assert body["endpoints"] == ["/metrics", "/health"]


def test_attach_endpoint_rejects_unknown_targets():
    with pytest.raises(TelemetryError):
        attach_endpoint(object())


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


def _scraped_coverage(server):
    body, _ = _get_text(server.url + "/metrics")
    family = parse_prometheus_text(body)["repro_conformal_rolling_coverage"]
    ((_, _, value),) = family["samples"]
    return value


def test_endpoint_coverage_gauge_is_nan_without_feedback(served_engine, payload, queries):
    """No feedback is no evidence: the gauge reads NaN, not 0.0 (the worst
    coverage), before any feedback and again after a swap."""
    clf = served_engine.streaming_classifier()
    calibration = clf.classify(queries)
    labels = (calibration.decision_values > 0).astype(int)
    clf.attach_conformal(
        SplitConformalClassifier(alpha=0.2).calibrate(calibration.decision_values, labels)
    )
    with AsyncServingQueue(clf, max_batch=4) as queue:
        with attach_endpoint(queue) as server:
            assert np.isnan(_scraped_coverage(server))

            coverage = queue.classifier.record_feedback(
                calibration.decision_values, labels
            )
            assert _scraped_coverage(server) == pytest.approx(coverage)

            queue.swap_payload(payload)
            assert np.isnan(_scraped_coverage(server))


# ----------------------------------------------------------------------
# Routes and the standalone server
# ----------------------------------------------------------------------
@pytest.mark.parametrize("path", ["/traces/recent", "/traces", "/", "/metrics/extra"])
def test_paths_other_than_metrics_and_health_are_404(path):
    with TelemetryServer(MetricsRegistry()) as server:
        with pytest.raises(HTTPError) as err:
            urlopen(server.url + path)
        assert err.value.code == 404
        body = json.loads(err.value.read().decode())
        assert body["error"] == f"unknown path {path!r}"
        assert body["endpoints"] == ["/metrics", "/health"]


def test_metrics_path_ignores_the_query_string():
    registry = MetricsRegistry()
    registry.counter("repro_test_total", "A test counter.").inc(3)
    with TelemetryServer(registry) as server:
        body, _ = _get_text(server.url + "/metrics?format=text")
    ((_, _, value),) = parse_prometheus_text(body)["repro_test_total"]["samples"]
    assert value == 3


def test_failing_collector_is_served_as_500_and_the_server_keeps_going():
    registry = MetricsRegistry()
    calls = []

    def collect():
        calls.append(None)
        if len(calls) == 1:
            raise RuntimeError("collector bug")

    registry.register_collector(collect, name="flaky")
    with TelemetryServer(registry) as server:
        with pytest.raises(HTTPError) as err:
            urlopen(server.url + "/metrics")
        assert err.value.code == 500
        assert "collector bug" in json.loads(err.value.read().decode())["error"]
        body, _ = _get_text(server.url + "/metrics")
        assert parse_prometheus_text(body) == {}
    assert len(calls) == 2


def test_server_without_a_health_callback_reports_ok():
    with TelemetryServer(MetricsRegistry()) as server:
        health, status = _get_json(server.url + "/health")
    assert (health, status) == ({"status": "ok"}, 200)


def test_degraded_health_is_served_with_200():
    with TelemetryServer(
        MetricsRegistry(), health=lambda: {"status": "degraded", "reason": "test"}
    ) as server:
        health, status = _get_json(server.url + "/health")
    assert status == 200
    assert health == {"status": "degraded", "reason": "test"}


def test_close_is_idempotent_and_releases_the_port():
    server = TelemetryServer(MetricsRegistry())
    url = server.url
    server.close()
    server.close()
    with pytest.raises(URLError):
        urlopen(url + "/health", timeout=5)


def test_port_in_use_raises_telemetry_error():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        port = taken.getsockname()[1]
        with pytest.raises(TelemetryError, match=f"127.0.0.1:{port}"):
            TelemetryServer(MetricsRegistry(), port=port)


# ----------------------------------------------------------------------
# attach_endpoint bindings
# ----------------------------------------------------------------------
def test_attach_endpoint_binds_into_a_passed_registry(served_engine, queries):
    registry = MetricsRegistry()
    with served_engine.serving_queue(max_batch=4) as queue:
        with attach_endpoint(queue, registry=registry) as server:
            assert server.registry is registry
            queue.submit_many(queries)
            queue.flush()
            body, _ = _get_text(server.url + "/metrics")
    scraped = parse_prometheus_text(body)
    assert set(scraped) == set(registry.to_dict())
    ((_, _, served),) = scraped["repro_serving_requests_total"]["samples"]
    assert served == len(queries)


def test_endpoint_without_conformal_exports_no_coverage_gauge(served_engine):
    with served_engine.serving_queue(max_batch=4) as queue:
        with attach_endpoint(queue) as server:
            body, _ = _get_text(server.url + "/metrics")
    families = parse_prometheus_text(body)
    assert "repro_serving_requests_total" in families
    assert "repro_conformal_rolling_coverage" not in families
    assert "repro_conformal_feedback_total" not in families


def test_health_and_pending_gauge_count_a_stalled_backlog(
    served_engine, queries, coalescer_gate
):
    with served_engine.serving_queue(max_batch=4) as queue:
        with attach_endpoint(queue) as server:
            sentinel = coalescer_gate.stall(queue)
            futures = queue.submit_many(queries[:3])
            health, status = _get_json(server.url + "/health")
            assert status == 200
            assert health == {"status": "ok", "closed": False, "pending": 3}
            body, _ = _get_text(server.url + "/metrics")
            ((_, _, pending),) = parse_prometheus_text(body)[
                "repro_serving_queue_pending"
            ]["samples"]
            assert pending == 3

            coalescer_gate.release()
            sentinel.result(timeout=30)
            [f.result(timeout=30) for f in futures]
            health, _ = _get_json(server.url + "/health")
            assert health["pending"] == 0


# ----------------------------------------------------------------------
# Coverage collectors over duck-typed sources
# ----------------------------------------------------------------------
class _StubClassifier:
    def __init__(self):
        self.feedback_count = 0
        self.coverage = None

    def rolling_coverage(self):
        return self.coverage


class _StubController(_StubClassifier):
    alarm_active = True
    alarm_count = 2
    refit_count = 1
    swap_count = 1
    buffered_samples = 7


def _values(registry):
    return {
        name: family["series"][0]["value"]
        for name, family in registry.to_dict().items()
    }


def test_classifier_coverage_collector_reads_nan_until_feedback():
    registry = MetricsRegistry()
    clf = _StubClassifier()
    assert bind_classifier_coverage(registry, clf) == ["conformal-coverage"]
    values = _values(registry)
    assert np.isnan(values["repro_conformal_rolling_coverage"])
    assert values["repro_conformal_feedback_total"] == 0

    clf.feedback_count, clf.coverage = 5, 0.8
    values = _values(registry)
    assert values["repro_conformal_rolling_coverage"] == 0.8
    assert values["repro_conformal_feedback_total"] == 5


def test_drift_controller_collector_reads_nan_until_feedback():
    registry = MetricsRegistry()
    controller = _StubController()
    assert bind_drift_controller(registry, controller) == ["drift-controller"]
    values = _values(registry)
    assert np.isnan(values["repro_drift_rolling_coverage"])
    assert values["repro_drift_alarm_active"] == 1.0
    assert values["repro_drift_alarms_total"] == 2
    assert values["repro_drift_refits_total"] == 1
    assert values["repro_drift_swaps_total"] == 1
    assert values["repro_drift_feedback_total"] == 0
    assert values["repro_drift_buffered_samples"] == 7

    controller.feedback_count, controller.coverage = 9, 0.75
    values = _values(registry)
    assert values["repro_drift_rolling_coverage"] == 0.75
    assert values["repro_drift_feedback_total"] == 9
