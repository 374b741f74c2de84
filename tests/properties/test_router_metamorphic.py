"""Metamorphic properties of the replica router and the durable tier.

The serving contract extends to the fleet: routing policy, replica count and
warm-vs-cold start are *placement and latency* knobs, never prediction knobs.
Every test here serves the same query stream through differently shaped
fleets and requires ``np.array_equal`` -- byte identity, not closeness --
against the single-process streaming classifier.
"""

import numpy as np
import pytest

from repro.approx import NystroemConfig
from repro.config import AnsatzConfig
from repro.core import QuantumKernelInferenceEngine
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like
from repro.serving import ROUTING_POLICIES, ReplicaRouter

ANSATZ = AnsatzConfig(num_features=4, interaction_distance=1, layers=1, gamma=0.6)

REPLICA_COUNTS = (1, 2, 4)


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
def queries():
    rng = np.random.default_rng(71)
    # Duplicates exercise the memo and key-affinity paths.
    unique = rng.normal(size=(9, 4))
    return np.vstack([unique, unique[:3]])


@pytest.fixture(scope="module")
def reference(served_engine, queries):
    result = served_engine.streaming_classifier().classify(queries)
    return result.decision_values, result.predictions


def _serve(router: ReplicaRouter, queries: np.ndarray):
    futures = router.submit_many(queries)
    results = [f.result(timeout=60) for f in futures]
    decisions = np.array([r.decision_value for r in results])
    predictions = np.array([r.prediction for r in results])
    return decisions, predictions


@pytest.mark.parametrize("policy", sorted(ROUTING_POLICIES))
@pytest.mark.parametrize("num_replicas", REPLICA_COUNTS)
def test_predictions_invariant_to_policy_and_replica_count(
    payload, queries, reference, policy, num_replicas
):
    ref_decisions, ref_predictions = reference
    with ReplicaRouter(
        payload,
        num_replicas=num_replicas,
        policy=policy,
        max_batch=4,
    ) as router:
        decisions, predictions = _serve(router, queries)
        routed = router.metrics_view()["routed_per_replica"]
    assert np.array_equal(decisions, ref_decisions)
    assert np.array_equal(predictions, ref_predictions)
    assert sum(routed) == len(queries)


@pytest.mark.parametrize("num_replicas", REPLICA_COUNTS)
def test_predictions_invariant_to_warm_vs_cold_start(
    payload, queries, reference, num_replicas, tmp_path
):
    ref_decisions, _ = reference
    root = tmp_path / "tier"

    # Cold fleet: every unique query is simulated, then snapshotted.
    with ReplicaRouter(
        payload,
        num_replicas=num_replicas,
        policy="least-depth",
        persistence_root=root,
        max_batch=4,
    ) as cold:
        assert all(r.available == 0 for r in cold.warm_up_reports)
        cold_decisions, _ = _serve(cold, queries)
        cold.close(snapshot=True)
    assert np.array_equal(cold_decisions, ref_decisions)

    # Warm fleet: restarted over the same root; serves simulation-free.
    with ReplicaRouter(
        payload,
        num_replicas=num_replicas,
        policy="least-depth",
        persistence_root=root,
        max_batch=4,
    ) as warm:
        assert all(r.loaded == r.available > 0 for r in warm.warm_up_reports)
        warm_decisions, _ = _serve(warm, queries)
        for store in warm.replica_stores:
            assert store.stats().misses == 0
    assert np.array_equal(warm_decisions, ref_decisions)


def test_mid_stream_replica_death_never_changes_survivor_output(
    payload, queries, reference
):
    ref_decisions, _ = reference
    router = ReplicaRouter(
        payload, num_replicas=3, policy="round-robin", max_batch=4
    )
    try:
        half = len(queries) // 2
        first, _ = _serve(router, queries[:half])
        router.kill_replica(1)
        second, _ = _serve(router, queries[half:])
        decisions = np.concatenate([first, second])
    finally:
        router.close()
    assert np.array_equal(decisions, ref_decisions)
