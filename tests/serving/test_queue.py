"""Unit tests for the async serving queue and its metrics."""

import sys
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
from repro.serving import AsyncServingQueue, ServedPrediction


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
    # Every flush is scored in-process: only 0 and 1 are accepted.
    for workers in (-1, 2):
        with pytest.raises(ServingError, match="workers"):
            AsyncServingQueue(clf, workers=workers)
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


def test_lone_request_on_idle_queue_is_flushed_alone(served_engine, queries):
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


def test_each_queue_owns_its_metrics(served_engine):
    clf = served_engine.streaming_classifier()
    with pytest.raises(TypeError):
        AsyncServingQueue(clf, metrics=ServingMetrics())
    with AsyncServingQueue(clf) as first, AsyncServingQueue(clf) as second:
        assert isinstance(first.metrics, ServingMetrics)
        assert first.metrics is not second.metrics


@pytest.mark.parametrize("max_batch", [1, 4, 32])
def test_metrics_record_each_served_latency_once(served_engine, queries, max_batch):
    with served_engine.serving_queue(max_batch=max_batch) as queue:
        results = [f.result(timeout=10) for f in queue.submit_many(queries)]
        queue.flush()
    metrics = queue.metrics
    # The recorded samples are exactly the latencies the futures carry.
    assert sorted(metrics.latency_samples()) == sorted(r.latency_s for r in results)
    sizes = metrics.batch_size_samples()
    assert sum(sizes) == len(queries)
    assert max(sizes) <= max_batch
    assert all(1 <= r.batch_size <= max_batch for r in results)


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


def test_no_future_waits_forever_when_close_lands_mid_stream(served_engine, queries):
    """Relation: submitters race the flushes until close() lands; every
    accepted future still resolves, byte-identical to a direct classify."""
    reference = served_engine.streaming_classifier().classify(queries)
    queue = served_engine.serving_queue(max_batch=3)
    accepted = []
    lock = threading.Lock()
    start = threading.Barrier(5)

    def submit_until_closed(seed):
        rng = np.random.default_rng(seed)
        start.wait()
        while True:
            i = int(rng.integers(len(queries)))
            try:
                future = queue.submit(queries[i])
            except ServingError:
                return
            with lock:
                accepted.append((i, future))

    threads = [
        threading.Thread(target=submit_until_closed, args=(s,), daemon=True)
        for s in range(4)
    ]
    # More submitters than cores, switching threads every few bytecodes.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        start.wait()
        deadline = time.monotonic() + 10.0
        while queue.metrics.total_batches < 5 and time.monotonic() < deadline:
            time.sleep(0.001)
        # The flushes ran while the stream did, not only at close().
        assert queue.metrics.total_batches >= 5
    finally:
        queue.close()
        sys.setswitchinterval(interval)
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert queue.pending == 0
    assert accepted
    for i, future in accepted:
        served = future.result(timeout=30)
        assert served.prediction == reference.predictions[i]
        assert np.float64(served.decision_value).tobytes() == (
            reference.decision_values[i].tobytes()
        )


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
