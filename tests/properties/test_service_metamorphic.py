"""Metamorphic properties of the one-queue service built by ``repro.serve()``.

The serving contract holds for the whole service: the config's values
(``max_batch``, ``memoize``, ``warm_max_keys``), warm-vs-cold start and the
way a caller chunks its stream are *latency* knobs, never prediction knobs,
and so is the telemetry endpoint and its scrapes.
Every test here serves the same query stream through differently shaped
services and requires ``np.array_equal`` -- byte identity, not closeness --
against the single-process streaming classifier.
"""

from urllib.request import urlopen

import numpy as np
import pytest

from repro.approx import NystroemConfig, StreamingNystroemClassifier
from repro.config import AnsatzConfig, ServingConfig
from repro.core import QuantumKernelInferenceEngine
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like
from repro.serving import serve
from repro.telemetry import parse_prometheus_text

ANSATZ = AnsatzConfig(num_features=4, interaction_distance=1, layers=1, gamma=0.6)

MAX_BATCHES = (1, 4, 32)


@pytest.fixture(scope="module")
def served_engine():
    data = balanced_subsample(
        generate_elliptic_like(DatasetSpec(num_samples=400, num_features=4, seed=29)),
        20,
        seed=4,
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
def unique():
    return np.random.default_rng(71).normal(size=(9, 4))


@pytest.fixture(scope="module")
def queries(unique):
    # Duplicates exercise the memo.
    return np.vstack([unique, unique[:3]])


@pytest.fixture(scope="module")
def reference(served_engine, queries):
    result = served_engine.streaming_classifier().classify(queries)
    return result.decision_values, result.predictions


def _serve(handle, queries):
    futures = handle.submit_many(queries)
    results = [f.result(timeout=60) for f in futures]
    decisions = np.array([r.decision_value for r in results])
    predictions = np.array([r.prediction for r in results])
    return decisions, predictions, results


# ----------------------------------------------------------------------
# Relation 1: max_batch and the memo never change a prediction.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("memoize", [True, False], ids=["memo", "no-memo"])
@pytest.mark.parametrize("max_batch", (1, 2, 4, 32))
def test_predictions_invariant_to_max_batch_and_memo(
    payload, queries, reference, max_batch, memoize
):
    ref_decisions, ref_predictions = reference
    config = ServingConfig(max_batch=max_batch, memoize=memoize)
    with serve(payload, config) as handle:
        decisions, predictions, results = _serve(handle, queries)
        view = handle.metrics()
        memo_hits = handle.queue.memo_hits
    assert np.array_equal(decisions, ref_decisions)
    assert np.array_equal(predictions, ref_predictions)
    assert all(1 <= r.batch_size <= max_batch for r in results)
    assert view["total_requests"] == view["total_enqueued"] == len(queries)
    if not memoize:
        assert memo_hits == 0


# ----------------------------------------------------------------------
# Relation 2: a service warm-started from the durable tier answers like a
# cold one, without a simulation.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("max_batch", MAX_BATCHES)
def test_predictions_invariant_to_warm_vs_cold_start(
    payload, queries, reference, max_batch, tmp_path
):
    ref_decisions, _ = reference
    config = ServingConfig(max_batch=max_batch, snapshot_root=str(tmp_path / "tier"))

    # Cold service: every unique query is simulated, then snapshotted.
    with serve(payload, config) as cold:
        assert cold.warm_up_report.available == 0
        cold_decisions, _, _ = _serve(cold, queries)
        cold.close(snapshot=True)
    assert np.array_equal(cold_decisions, ref_decisions)

    # Warm service: restarted over the same root; serves simulation-free.
    with serve(payload, config) as warm:
        report = warm.warm_up_report
        assert report.loaded == report.available > 0
        warm_decisions, _, _ = _serve(warm, queries)
        assert warm.store.stats().misses == 0
        assert warm.metrics()["warm_hit_ratio"] == 1.0
    assert np.array_equal(warm_decisions, ref_decisions)


# ----------------------------------------------------------------------
# Relation 3: the warm-up budget moves only the simulation count: the
# states it leaves behind are simulated again, and nothing else changes.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("warm_max_keys", [0, 1, 5, None])
def test_predictions_invariant_to_warm_up_budget(
    served_engine, payload, unique, warm_max_keys, tmp_path
):
    expected = served_engine.streaming_classifier().classify(unique)
    root = str(tmp_path / "tier")
    with serve(payload, ServingConfig(snapshot_root=root)) as seeder:
        _serve(seeder, unique)
        seeder.close(snapshot=True)

    config = ServingConfig(snapshot_root=root, warm_max_keys=warm_max_keys)
    with serve(payload, config) as handle:
        report = handle.warm_up_report
        engine = handle.queue.classifier.feature_map.engine
        simulated_before = engine.backend.num_simulations
        decisions, predictions, _ = _serve(handle, unique)
        simulated = engine.backend.num_simulations - simulated_before
    budget = report.available if warm_max_keys is None else warm_max_keys
    assert report.available == len(unique)
    assert report.loaded == min(budget, report.available)
    assert simulated == len(unique) - report.loaded
    assert np.array_equal(decisions, expected.decision_values)
    assert np.array_equal(predictions, expected.predictions)


# ----------------------------------------------------------------------
# Relation 4: how the caller chunks its stream never changes an answer.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("chunk", [1, 3, 5, 12])
def test_predictions_invariant_to_submission_chunking(
    payload, queries, reference, chunk
):
    ref_decisions, ref_predictions = reference
    with serve(payload, ServingConfig(max_batch=4)) as handle:
        futures = []
        for start in range(0, len(queries), chunk):
            futures += handle.submit_many(queries[start : start + chunk])
            handle.flush()
        results = [f.result(timeout=60) for f in futures]
    assert np.array([r.decision_value for r in results]).tobytes() == (
        ref_decisions.tobytes()
    )
    assert np.array_equal([r.prediction for r in results], ref_predictions)


# ----------------------------------------------------------------------
# Relation 5: a request whose own score raises fails alone, whatever the
# service's max_batch cuts its stream into.
# ----------------------------------------------------------------------
POISON = np.full(4, 0.125)


@pytest.mark.parametrize("max_batch", MAX_BATCHES)
def test_poisoned_request_fails_only_itself_through_serve(
    payload, queries, reference, max_batch, coalescer_gate, monkeypatch
):
    ref_decisions, _ = reference
    classify = StreamingNystroemClassifier.classify

    def classify_raising_on_poison(classifier, X):
        if any(row.tobytes() == POISON.tobytes() for row in np.atleast_2d(X)):
            raise RuntimeError("poisoned row")
        return classify(classifier, X)

    monkeypatch.setattr(
        StreamingNystroemClassifier, "classify", classify_raising_on_poison
    )
    bad = (0, 5, len(queries) + 2)
    stream = queries
    for position in bad:
        stream = np.insert(stream, position, POISON, axis=0)
    with serve(payload, ServingConfig(max_batch=max_batch)) as handle:
        sentinel = coalescer_gate.stall(handle.queue)
        futures = handle.submit_many(stream)
        coalescer_gate.release()
        handle.flush()
        for i in bad:
            assert isinstance(futures[i].exception(timeout=60), RuntimeError)
        served = [f.result(timeout=60) for i, f in enumerate(futures) if i not in bad]
        assert sentinel.result(timeout=60).prediction in (0, 1)
        total = handle.metrics()["total_requests"]
    decisions = np.array([r.decision_value for r in served])
    assert decisions.tobytes() == ref_decisions.tobytes()
    assert total == len(queries) + 1  # the served rows and the sentinel


# ----------------------------------------------------------------------
# Relation 6: telemetry on or off, and scrapes of /metrics between chunks,
# never change an answer or the service's own accounting.
# ----------------------------------------------------------------------
def _serve_in_chunks(payload, queries, max_batch, telemetry, chunk=4):
    """Serve ``queries`` chunk by chunk; with telemetry, scrape before each
    chunk and at the end.  Returns the results, the handle's served count
    and memo hits, and the parsed scrapes."""
    scrapes = []

    def scrape(handle):
        if telemetry:
            with urlopen(handle.url + "/metrics") as response:
                scrapes.append(parse_prometheus_text(response.read().decode("utf-8")))

    with serve(payload, ServingConfig(max_batch=max_batch), telemetry=telemetry) as handle:
        assert (handle.endpoint is not None) == telemetry
        futures = []
        for start in range(0, len(queries), chunk):
            scrape(handle)
            futures += handle.submit_many(queries[start : start + chunk])
            handle.flush()
        scrape(handle)
        results = [f.result(timeout=60) for f in futures]
        served = handle.metrics()["total_requests"]
        memo_hits = handle.queue.memo_hits
    return results, served, memo_hits, scrapes


@pytest.mark.parametrize("max_batch", MAX_BATCHES)
def test_predictions_invariant_to_telemetry(payload, queries, reference, max_batch):
    ref_decisions, ref_predictions = reference
    on, on_served, on_hits, scrapes = _serve_in_chunks(payload, queries, max_batch, True)
    off, off_served, off_hits, _ = _serve_in_chunks(payload, queries, max_batch, False)

    on_decisions = np.array([r.decision_value for r in on])
    off_decisions = np.array([r.decision_value for r in off])
    assert on_decisions.tobytes() == off_decisions.tobytes() == ref_decisions.tobytes()
    assert [r.prediction for r in on] == [r.prediction for r in off]
    assert np.array_equal([r.prediction for r in on], ref_predictions)
    assert on_served == off_served == len(queries)
    assert on_hits == off_hits == 3  # the stream's three repeats, one chunk later
    # The endpoint saw the stream: the last scrape counts every request.
    ((_, _, requests),) = scrapes[-1]["repro_serving_requests_total"]["samples"]
    assert requests == len(queries)
