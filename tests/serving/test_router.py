"""Unit tests for the replica router: policies, shedding, metrics, fleet ops."""

import numpy as np
import pytest

from repro.approx import NystroemConfig
from repro.config import AnsatzConfig, ServingConfig, TuningConfig
from repro.core import QuantumKernelInferenceEngine
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like
from repro.exceptions import LoadShedError, ServingError
from repro.profiling import RouterMetrics, ServingMetrics
from repro.serving import (
    KeyAffinityPolicy,
    LeastDepthPolicy,
    ReplicaRouter,
    RoundRobinPolicy,
    make_routing_policy,
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
    return rng.normal(size=(12, 4))


# ----------------------------------------------------------------------
# Policies in isolation
# ----------------------------------------------------------------------
def test_round_robin_cycles_and_adapts_to_fleet_size():
    policy = RoundRobinPolicy()
    picks = [policy.select(b"k", [0, 0, 0]) for _ in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]
    # A replica died: the cycle keeps covering the smaller fleet.
    assert policy.select(b"k", [0, 0]) in (0, 1)


def test_least_depth_picks_shallowest_with_deterministic_ties():
    policy = LeastDepthPolicy()
    assert policy.select(b"k", [3, 1, 2]) == 1
    assert policy.select(b"k", [2, 2, 2]) == 0  # tie -> lowest index


def test_key_affinity_is_stable_and_content_addressed():
    policy = KeyAffinityPolicy()
    rng = np.random.default_rng(0)
    keys = [rng.normal(size=4).tobytes() for _ in range(32)]
    first = [policy.select(k, [0] * 4) for k in keys]
    second = [policy.select(k, [9, 9, 9, 9]) for k in keys]
    assert first == second  # depth never matters, only content
    assert len(set(first)) > 1  # keys actually spread over the fleet


def test_make_routing_policy_registry():
    assert isinstance(make_routing_policy("round-robin"), RoundRobinPolicy)
    assert isinstance(make_routing_policy("least-depth"), LeastDepthPolicy)
    assert isinstance(make_routing_policy("key-affinity"), KeyAffinityPolicy)
    instance = LeastDepthPolicy()
    assert make_routing_policy(instance) is instance
    with pytest.raises(ServingError, match="unknown routing policy"):
        make_routing_policy("random-walk")


# ----------------------------------------------------------------------
# Router behaviour
# ----------------------------------------------------------------------
def test_router_validates_parameters(payload):
    with pytest.raises(ServingError):
        ReplicaRouter(payload, num_replicas=0)
    with pytest.raises(ServingError):
        ReplicaRouter(payload, num_replicas=1, queue_depth_high_water=0)


def test_router_rejects_malformed_rows(payload):
    with ReplicaRouter(payload, num_replicas=1, max_batch=4) as router:
        with pytest.raises(ServingError):
            router.submit(np.zeros(3))


def test_routed_row_is_admitted_once(payload, queries, monkeypatch):
    from repro.serving import queue as queue_module
    from repro.serving import router as router_module

    admitted = []
    admit_row = queue_module.admit_row

    def counting_admit_row(row, expected_features):
        admitted.append(1)
        return admit_row(row, expected_features)

    monkeypatch.setattr(queue_module, "admit_row", counting_admit_row)
    monkeypatch.setattr(router_module, "admit_row", counting_admit_row)
    with ReplicaRouter(payload, num_replicas=2, max_batch=4) as router:
        router.submit(queries[0]).result(timeout=60)
        assert len(admitted) == 1
        # A bare queue's public submit still admits its row.
        router.queues[1].submit(queries[1]).result(timeout=60)
        assert len(admitted) == 2


BAD_ROWS = {
    "narrow": np.zeros(3),
    "wide": np.zeros(5),
    "nan": np.array([0.1, np.nan, 0.2, 0.3]),
    "inf": np.array([0.1, 0.2, -np.inf, 0.3]),
}


@pytest.mark.parametrize("bad", list(BAD_ROWS), ids=list(BAD_ROWS))
def test_rejected_row_leaves_no_trace(served_engine, payload, queries, coalescer_gate, bad):
    """A bad row raises ServingError at the router and at a bare queue, and
    changes no depth, enqueue count, high-water mark or route count."""

    def queue_state(queue):
        snapshot = queue.metrics.to_dict()
        return (
            queue.pending,
            snapshot["total_enqueued"],
            snapshot["queue_depth_high_water"],
        )

    queue = served_engine.serving_queue(max_batch=1000)
    router = ReplicaRouter(payload, num_replicas=2, max_batch=1000)
    try:
        for q in [queue] + router.queues:
            coalescer_gate.stall(q)
        accepted = [queue.submit(queries[0])]
        accepted += [router.submit(queries[i]) for i in range(3)]
        before = (
            queue_state(queue),
            [queue_state(q) for q in router.queues],
            router.metrics.routed_per_replica,
        )
        with pytest.raises(ServingError):
            queue.submit(BAD_ROWS[bad])
        with pytest.raises(ServingError):
            router.submit(BAD_ROWS[bad])
        after = (
            queue_state(queue),
            [queue_state(q) for q in router.queues],
            router.metrics.routed_per_replica,
        )
        assert after == before
        coalescer_gate.release()
        for future in accepted:
            assert future.result(timeout=60).prediction in (0, 1)
    finally:
        coalescer_gate.release()
        queue.close()
        router.close()


def test_router_serves_identically_to_direct_classifier(
    served_engine, payload, queries
):
    reference = served_engine.streaming_classifier().classify(queries)
    with ReplicaRouter(
        payload, num_replicas=2, policy="round-robin", max_batch=4
    ) as router:
        futures = router.submit_many(queries)
        results = [f.result(timeout=60) for f in futures]
    decisions = np.array([r.decision_value for r in results])
    predictions = np.array([r.prediction for r in results])
    assert np.array_equal(decisions, reference.decision_values)
    assert np.array_equal(predictions, reference.predictions)
    view = router.metrics_view()
    assert view["total_routed"] == len(queries)
    assert sum(view["routed_per_replica"]) == len(queries)
    assert view["shed_count"] == 0
    assert len(view["replicas"]) == 2


def test_key_affinity_routes_repeats_to_one_replica(payload, queries):
    with ReplicaRouter(
        payload, num_replicas=3, policy="key-affinity", max_batch=8
    ) as router:
        row = queries[0]
        futures = [router.submit(row) for _ in range(6)]
        for f in futures:
            f.result(timeout=60)
        view = router.metrics_view()
    assert sorted(view["routed_per_replica"]) == [0, 0, 6]


def test_load_shedding_at_high_water(payload, queries, coalescer_gate):
    # Stalled coalescers let pending depth build deterministically: with
    # high-water 2 and 2 replicas, the fifth submission finds every replica
    # saturated and must be shed.
    router = ReplicaRouter(
        payload,
        num_replicas=2,
        policy="round-robin",
        queue_depth_high_water=2,
        max_batch=1000,
    )
    try:
        for queue in router.queues:
            coalescer_gate.stall(queue)
        accepted = [router.submit(queries[i]) for i in range(4)]
        assert router.pending() == [2, 2]
        with pytest.raises(LoadShedError):
            router.submit(queries[4])
        view = router.metrics_view()
        assert view["shed_count"] == 1
        assert view["total_routed"] == 4
        coalescer_gate.release()
        router.flush()
        for f in accepted:
            assert f.result(timeout=60).prediction in (0, 1)
    finally:
        coalescer_gate.release()
        router.close()


def test_saturated_pick_fails_over_to_shallowest(payload, queries, coalescer_gate):
    # Key-affinity pins every copy of one row onto a single replica; once
    # that replica hits high water the router must divert to the idle one
    # instead of shedding.
    router = ReplicaRouter(
        payload,
        num_replicas=2,
        policy="key-affinity",
        queue_depth_high_water=2,
        max_batch=1000,
    )
    try:
        for queue in router.queues:
            coalescer_gate.stall(queue)
        row = queries[0]
        for _ in range(3):
            router.submit(row)
        depths = router.pending()
        assert sorted(depths) == [1, 2]  # third went to the other replica
        view = router.metrics_view()
        assert view["failover_count"] == 1
        assert view["shed_count"] == 0
        coalescer_gate.release()
        router.flush()
    finally:
        coalescer_gate.release()
        router.close()


def test_from_config_builds_matching_fleet(payload, tmp_path):
    config = ServingConfig(
        tuning=TuningConfig(
            max_batch=4, queue_depth_high_water=16
        ),
        num_replicas=2,
        routing_policy="least-depth",
        snapshot_root=str(tmp_path / "snaps"),
    )
    with ReplicaRouter.from_config(payload, config) as router:
        assert router.num_replicas == 2
        assert isinstance(router.policy, LeastDepthPolicy)
        assert router.high_water == 16
        assert all(store is not None for store in router.replica_stores)
        future = router.submit(np.zeros(4))
        assert future.result(timeout=60).prediction in (0, 1)


def test_router_metrics_view_shapes():
    metrics = RouterMetrics([ServingMetrics(), ServingMetrics()])
    metrics.record_route(0)
    metrics.record_route(1)
    metrics.record_route(1)
    metrics.record_shed()
    metrics.record_failover()
    view = metrics.view(warm_hits=3, warm_lookups=4)
    assert view["routed_per_replica"] == [1, 2]
    assert view["total_routed"] == 3
    assert view["shed_count"] == 1
    assert view["failover_count"] == 1
    assert view["warm_hit_ratio"] == pytest.approx(0.75)
    # Replicas with no completed requests report null percentiles, not errors.
    assert view["replicas"][0]["p99_latency_s"] is None
    no_warm = metrics.view()
    assert "warm_hit_ratio" not in no_warm
