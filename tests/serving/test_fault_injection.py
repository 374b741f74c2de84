"""Fault injection: process kill-and-restart, replica crashes mid-batch.

The durable tier's acceptance bar is survival of *ungraceful* death: the
kill-and-restart test SIGKILLs a real serving process after it snapshots (no
atexit, no context-manager cleanup ran) and proves a warm-started successor
produces byte-identical predictions with zero circuit simulations.  The
router tests model the single-replica failure modes: a classifier that blows
up mid-batch, and a queue that was closed behind the router's back (for
routing and for a fleet swap).
"""

import os
import pickle
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.approx import NystroemConfig, StreamingNystroemClassifier
from repro.config import AnsatzConfig
from repro.core import QuantumKernelInferenceEngine
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like
from repro.serving import PersistentStateStore, ReplicaRouter

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

ANSATZ = AnsatzConfig(num_features=4, interaction_distance=1, layers=1, gamma=0.6)

# The serving process that gets SIGKILLed: fit, serve, snapshot, die hard.
# It persists its payload and its served outputs so the restarted process
# (the test) can prove byte-identical recovery without refitting.
_CRASHING_SERVER = """
import os, pickle, signal, sys
import numpy as np
from repro.approx import NystroemConfig, StreamingNystroemClassifier
from repro.config import AnsatzConfig
from repro.core import QuantumKernelInferenceEngine
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like
from repro.serving import PersistentStateStore

root = sys.argv[1]
data = balanced_subsample(
    generate_elliptic_like(DatasetSpec(num_samples=400, num_features=4, seed=31)),
    20,
    seed=2,
)
engine = QuantumKernelInferenceEngine(
    AnsatzConfig(num_features=4, interaction_distance=1, layers=1, gamma=0.6),
    approximation=NystroemConfig(num_landmarks=6, seed=0),
)
engine.fit(data.features, data.labels)
payload = engine.serving_payload()

store = PersistentStateStore(os.path.join(root, "tier"))
classifier = StreamingNystroemClassifier.from_serving_payload(payload, store=store)
store.fingerprint = classifier.feature_map.engine.fingerprint

queries = np.random.default_rng(53).normal(size=(10, 4))
result = classifier.classify(queries)
assert result.num_simulations == queries.shape[0]  # genuinely cold

manifest = store.snapshot()
with open(os.path.join(root, "payload.pkl"), "wb") as fh:
    pickle.dump(payload, fh)
np.save(os.path.join(root, "decisions.npy"), result.decision_values)
np.save(os.path.join(root, "predictions.npy"), result.predictions)
np.save(os.path.join(root, "kernel_rows.npy"), result.kernel_rows)
sys.stdout.write(f"served={result.num_points} snapshot={len(manifest.keys)}\\n")
sys.stdout.flush()
os.kill(os.getpid(), signal.SIGKILL)  # no graceful shutdown, ever
"""


def _run_crashing_server(root: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", _CRASHING_SERVER, str(root)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def crashed_server(tmp_path_factory):
    root = tmp_path_factory.mktemp("crash")
    proc = _run_crashing_server(root)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    assert "snapshot=10" in proc.stdout
    return root


def test_kill_and_restart_round_trip_is_byte_identical(crashed_server):
    root = crashed_server
    with open(root / "payload.pkl", "rb") as fh:
        payload = pickle.load(fh)

    # A fresh process (this one) warm-starts from the dead server's snapshot.
    store = PersistentStateStore(root / "tier")
    classifier = StreamingNystroemClassifier.from_serving_payload(
        payload, store=store
    )
    store.fingerprint = classifier.feature_map.engine.fingerprint
    report = store.warm_up()
    assert report.available == 10
    assert report.loaded == 10

    queries = np.random.default_rng(53).normal(size=(10, 4))
    result = classifier.classify(queries)
    assert result.num_simulations == 0  # everything came from the snapshot
    assert np.array_equal(result.decision_values, np.load(root / "decisions.npy"))
    assert np.array_equal(result.predictions, np.load(root / "predictions.npy"))
    assert np.array_equal(result.kernel_rows, np.load(root / "kernel_rows.npy"))


def test_kill_and_restart_warm_starts_a_router_fleet(crashed_server):
    root = crashed_server
    with open(root / "payload.pkl", "rb") as fh:
        payload = pickle.load(fh)
    queries = np.random.default_rng(53).normal(size=(10, 4))
    with ReplicaRouter(
        payload,
        num_replicas=2,
        policy="least-depth",
        persistence_root=root / "tier",
        max_batch=4,
    ) as router:
        assert all(r.loaded == 10 for r in router.warm_up_reports)
        futures = router.submit_many(queries)
        decisions = np.array([f.result(timeout=60).decision_value for f in futures])
        # Warm evidence: no replica missed the state store even once.
        for store in router.replica_stores:
            assert store.stats().misses == 0
        assert router.metrics_view()["warm_hit_ratio"] == 1.0
    assert np.array_equal(decisions, np.load(root / "decisions.npy"))


# ----------------------------------------------------------------------
# Replica-level faults inside one process
# ----------------------------------------------------------------------
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


def test_replica_crash_mid_batch_fails_only_its_futures(
    served_engine, payload, queries, monkeypatch
):
    reference = served_engine.streaming_classifier().classify(queries)
    router = ReplicaRouter(
        payload,
        num_replicas=2,
        policy="round-robin",
        max_batch=1000,
    )
    try:
        def crash(rows):
            raise RuntimeError("replica storage dropped mid-batch")

        monkeypatch.setattr(router._queues[0].classifier, "classify", crash)
        futures = router.submit_many(queries)  # even indices land on replica 0
        router.flush()
        failed = [i for i, f in enumerate(futures) if f.exception() is not None]
        assert failed == list(range(0, len(queries), 2))
        for i in failed:
            assert isinstance(futures[i].exception(), RuntimeError)
        # The healthy replica's futures resolved, byte-identical.
        for i in range(1, len(queries), 2):
            assert futures[i].result().decision_value == reference.decision_values[i]

        # Operator response: retire the bad replica, resubmit the failures.
        router.kill_replica(0)
        assert router.alive_replicas == [1]
        retries = [router.submit(queries[i]) for i in failed]
        router.flush()
        for i, future in zip(failed, retries):
            assert future.result(timeout=60).decision_value == (
                reference.decision_values[i]
            )
    finally:
        router.close()


def test_router_routes_around_a_queue_closed_behind_its_back(
    served_engine, payload, queries
):
    reference = served_engine.streaming_classifier().classify(queries)
    router = ReplicaRouter(
        payload, num_replicas=2, policy="round-robin", max_batch=4
    )
    try:
        router._queues[0].close()  # abrupt death the router was never told about
        futures = router.submit_many(queries)
        decisions = np.array([f.result(timeout=60).decision_value for f in futures])
        assert np.array_equal(decisions, reference.decision_values)
        assert router.alive_replicas == [1]
        view = router.metrics_view()
        assert view["failover_count"] >= 1
        assert view["routed_per_replica"][0] == 0
        assert view["routed_per_replica"][1] == len(queries)
    finally:
        router.close()


@pytest.mark.parametrize("closed", [0, 1])
def test_fleet_swap_skips_a_queue_closed_behind_its_back(
    served_engine, payload, queries, closed
):
    """A swap rolls out over the replicas that are really alive: a queue that
    closed without the router's knowledge neither fails the swap nor leaves
    the survivor on the old model."""
    replacement = _fit_engine(landmark_seed=5)
    expected = replacement.streaming_classifier().classify(queries)
    old = served_engine.streaming_classifier().classify(queries)
    assert not np.array_equal(expected.decision_values, old.decision_values)
    router = ReplicaRouter(
        payload, num_replicas=2, policy="round-robin", max_batch=4
    )
    try:
        router._queues[closed].close()  # death the router was never told about
        assert router.swap_payload(replacement.serving_payload()) == 1
        assert router.swap_count == 1
        assert router.model_version == 1
        served = [f.result(timeout=60) for f in router.submit_many(queries)]
        assert all(r.model_version == 1 for r in served)
        decisions = np.array([r.decision_value for r in served])
        assert decisions.tobytes() == expected.decision_values.tobytes()
    finally:
        router.close()


def test_kill_replica_folds_access_log_into_survivor(payload, queries, tmp_path):
    router = ReplicaRouter(
        payload,
        num_replicas=2,
        policy="key-affinity",
        persistence_root=tmp_path / "tier",
        max_batch=4,
    )
    try:
        futures = router.submit_many(queries)
        for f in futures:
            f.result(timeout=60)
        dead, survivor = 0, 1
        dead_tallies = dict(router.replica_stores[dead].access_counts)
        router.kill_replica(dead)
        merged = router.replica_stores[survivor].access_counts
        for key, count in dead_tallies.items():
            assert merged.get(key, 0) >= count
        manifest = router.snapshot()  # fleet union is still snapshottable
        assert len(manifest.keys) == len(queries)
    finally:
        router.close()
