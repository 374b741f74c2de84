"""Unit tests for the async serving queue and the shared landmark store."""

import pickle
import threading
import time

import numpy as np
import pytest

from repro.approx import NystroemConfig
from repro.config import AnsatzConfig
from repro.core import QuantumKernelInferenceEngine
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like
from repro.exceptions import ReproError, ServingError
from repro.profiling import ServingMetrics
from repro.serving import AsyncServingQueue, SharedLandmarkStore, ServedPrediction
from repro.serving.store import shared_store_kernel_rows


ANSATZ = AnsatzConfig(num_features=4, interaction_distance=1, layers=1, gamma=0.6)


@pytest.fixture(scope="module")
def served_engine():
    data = balanced_subsample(
        generate_elliptic_like(DatasetSpec(num_samples=400, num_features=4, seed=31)),
        24,
        seed=2,
    )
    engine = QuantumKernelInferenceEngine(
        ANSATZ, approximation=NystroemConfig(num_landmarks=6, seed=0)
    )
    engine.fit(data.features, data.labels)
    return engine


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(53)
    return rng.normal(size=(12, 4))


# ----------------------------------------------------------------------
# Queue behaviour
# ----------------------------------------------------------------------
def test_queue_validates_parameters(served_engine):
    clf = served_engine.streaming_classifier()
    with pytest.raises(ServingError):
        AsyncServingQueue(clf, max_batch=0)
    with pytest.raises(ServingError):
        AsyncServingQueue(clf, workers=-1)
    with pytest.raises(ServingError):
        AsyncServingQueue(clf, memo_capacity=0)


def test_queue_rejects_malformed_rows(served_engine):
    with served_engine.serving_queue(max_batch=4) as queue:
        with pytest.raises(ServingError):
            queue.submit(np.zeros(3))


def test_queue_rejects_after_close(served_engine, queries):
    queue = served_engine.serving_queue(max_batch=4)
    queue.close()
    with pytest.raises(ServingError):
        queue.submit(queries[0])
    queue.close()  # idempotent


def test_close_flushes_pending_requests(served_engine, queries, coalescer_gate):
    queue = served_engine.serving_queue(max_batch=64)
    coalescer_gate.stall(queue)
    futures = queue.submit_many(queries)
    # close() runs while every query is still pending behind the gate.
    closer = threading.Thread(target=queue.close)
    closer.start()
    deadline = time.monotonic() + 30.0
    while not queue.closed and time.monotonic() < deadline:
        time.sleep(0.001)
    assert queue.closed
    coalescer_gate.release()
    closer.join(timeout=30)
    assert not closer.is_alive()
    results = [f.result(timeout=10) for f in futures]
    assert len(results) == len(queries)
    reference = served_engine.streaming_classifier().classify(queries)
    assert np.array_equal(
        np.array([r.decision_value for r in results]), reference.decision_values
    )


def test_flush_forces_partial_batch(served_engine, queries, coalescer_gate):
    with served_engine.serving_queue(max_batch=64) as queue:
        coalescer_gate.stall(queue)
        futures = queue.submit_many(queries[:3])
        coalescer_gate.release()
        queue.flush()
        results = [f.result(timeout=10) for f in futures]
    assert [r.batch_size for r in results] == [3, 3, 3]


def test_max_wait_flushes_without_full_batch(served_engine, queries):
    # Work-conserving: a lone request on an idle queue is flushed at once,
    # never held back waiting for its batch to fill.
    with served_engine.serving_queue(max_batch=64) as queue:
        future = queue.submit(queries[0])
        result = future.result(timeout=10)
    assert result.batch_size == 1
    assert result.latency_s >= 0.0


def test_queue_propagates_classifier_errors(served_engine, queries):
    clf = served_engine.streaming_classifier()

    class Exploding:
        feature_map = clf.feature_map

        def scale(self, rows):
            return clf.scale(rows)

        def classify(self, rows):
            raise RuntimeError("backend on fire")

    with AsyncServingQueue(Exploding(), max_batch=2) as queue:
        futures = [queue.submit(queries[0]), queue.submit(queries[1])]
        for future in futures:
            with pytest.raises(RuntimeError, match="backend on fire"):
                future.result(timeout=10)


def test_memo_hits_and_capacity(served_engine, queries):
    with served_engine.serving_queue(
        max_batch=4, memo_capacity=2
    ) as queue:
        for _ in range(3):
            futures = queue.submit_many(queries[:2])
            [f.result(timeout=10) for f in futures]
        assert queue.memo_hits >= 2
        assert len(queue._slot.memo) <= 2


def test_memo_can_be_disabled(served_engine, queries):
    with served_engine.serving_queue(
        max_batch=4, memoize=False
    ) as queue:
        futures = queue.submit_many(np.vstack([queries[:2], queries[:2]]))
        results = [f.result(timeout=10) for f in futures]
        assert queue.memo_hits == 0
    assert results[0].decision_value == results[2].decision_value


def test_queue_metrics_accounting(served_engine, queries):
    with served_engine.serving_queue(max_batch=4) as queue:
        futures = queue.submit_many(queries)
        [f.result(timeout=10) for f in futures]
        queue.flush()
    metrics = queue.metrics
    assert metrics.total_requests == len(queries)
    assert metrics.total_batches >= len(queries) // 4
    assert metrics.p50_latency_s <= metrics.p99_latency_s
    assert metrics.queue_depth_high_water >= 1
    snapshot = metrics.to_dict()
    assert snapshot["total_requests"] == len(queries)
    assert snapshot["throughput_rps"] > 0


def test_served_prediction_validates():
    with pytest.raises(ServingError):
        ServedPrediction(prediction=1, decision_value=0.5, latency_s=0.1, batch_size=0)


def test_concurrent_submitters_all_served(served_engine, queries):
    """Many threads submitting at once: every request resolves correctly."""
    reference = served_engine.streaming_classifier().classify(queries)
    with served_engine.serving_queue(max_batch=5) as queue:
        results = {}

        def submit_one(i):
            results[i] = queue.submit(queries[i]).result(timeout=30)

        threads = [
            threading.Thread(target=submit_one, args=(i,))
            for i in range(len(queries))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    decisions = np.array([results[i].decision_value for i in range(len(queries))])
    assert np.array_equal(decisions, reference.decision_values)


# ----------------------------------------------------------------------
# Shared landmark store
# ----------------------------------------------------------------------
def test_shared_store_round_trip(served_engine, queries):
    clf = served_engine.streaming_classifier()
    payload = clf.serving_payload()
    # The payload must survive pickling (it crosses process boundaries).
    payload = pickle.loads(pickle.dumps(payload))
    replica = SharedLandmarkStore.attach(payload)
    assert replica.num_landmarks == 6
    reference = clf.classify(queries)
    assert np.array_equal(replica.decision_function(queries), reference.decision_values)
    assert np.array_equal(replica.predict(queries), reference.predictions)


def test_shared_store_rejects_incomplete_payload(served_engine):
    payload = served_engine.streaming_classifier().serving_payload()
    payload.pop("normalization")
    with pytest.raises(ServingError, match="missing keys"):
        SharedLandmarkStore.attach(payload)


def test_worker_task_requires_attachment():
    import repro.serving.store as store_module

    saved = store_module._ATTACHED
    store_module._ATTACHED = None
    try:
        with pytest.raises(ServingError, match="no attached landmark store"):
            shared_store_kernel_rows(np.zeros((1, 4)))
    finally:
        store_module._ATTACHED = saved


def test_two_worker_queue_matches_in_process(served_engine, queries):
    reference = served_engine.streaming_classifier().classify(queries)
    with served_engine.serving_queue(
        max_batch=6, workers=2, memoize=False
    ) as queue:
        futures = queue.submit_many(queries)
        results = [f.result(timeout=120) for f in futures]
    decisions = np.array([r.decision_value for r in results])
    assert np.array_equal(decisions, reference.decision_values)


# ----------------------------------------------------------------------
# ServingMetrics unit behaviour
# ----------------------------------------------------------------------
def test_serving_metrics_empty_state_raises():
    metrics = ServingMetrics()
    with pytest.raises(ReproError):
        metrics.p50_latency_s
    with pytest.raises(ReproError):
        metrics.throughput_rps
    with pytest.raises(ReproError):
        metrics.mean_batch_size
    with pytest.raises(ReproError):
        metrics.record_batch([], 0.0, 0.0)
    assert metrics.to_dict()["total_requests"] == 0


def test_serving_metrics_percentiles():
    metrics = ServingMetrics()
    metrics.record_enqueue(1, now=0.0)
    metrics.record_batch([0.001 * (i + 1) for i in range(100)], 0.2, now=1.0)
    assert metrics.total_requests == 100
    assert metrics.p50_latency_s == pytest.approx(0.0505, abs=1e-3)
    assert metrics.p99_latency_s <= 0.1
    assert metrics.throughput_rps == pytest.approx(100.0, rel=1e-6)
