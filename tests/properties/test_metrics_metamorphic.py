"""Metamorphic relations of the telemetry layer.

The deterministic metric families -- request counts, simulation counts,
store miss totals, encode launch counts -- are pure functions of the request
stream, so identical streams must reproduce them exactly however the stream
was coalesced and whether the caches started warm or cold.  :meth:`MetricsRegistry.deterministic_snapshot` is the
filtered view these relations pin (wall-clock families are excluded by
naming convention); predictions ride along byte-identical as always.
"""

import numpy as np
import pytest

from repro.approx import NystroemConfig
from repro.config import AnsatzConfig, ServingConfig
from repro.core import QuantumKernelInferenceEngine
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like
from repro.serving import serve
from repro.telemetry import MetricsRegistry, bind_queue

ANSATZ = AnsatzConfig(num_features=4, interaction_distance=1, layers=1, gamma=0.6)


@pytest.fixture(scope="module")
def served_engine():
    data = balanced_subsample(
        generate_elliptic_like(DatasetSpec(num_samples=400, num_features=4, seed=11)),
        24,
        seed=3,
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
    rng = np.random.default_rng(77)
    return rng.normal(size=(16, 4))


def _serve_queue(served_engine, queries, **queue_kwargs):
    """One full pass through a fresh queue; returns (snapshot, decisions)."""
    registry = MetricsRegistry()
    with served_engine.serving_queue(**queue_kwargs) as queue:
        bind_queue(registry, queue)
        futures = [queue.submit(row) for row in queries]
        queue.flush()
        results = [f.result(timeout=30) for f in futures]
    return registry.deterministic_snapshot(), np.array(
        [r.decision_value for r in results]
    )


def _serve_durable(payload, queries, root, snapshot=False):
    """One pass through a service over the durable tier at ``root``."""
    registry = MetricsRegistry()
    handle = serve(payload, ServingConfig(max_batch=4, snapshot_root=root))
    try:
        bind_queue(registry, handle.queue)
        futures = handle.submit_many(queries)
        handle.flush()
        results = [f.result(timeout=30) for f in futures]
    finally:
        handle.close(snapshot=snapshot)
    return registry.deterministic_snapshot(), np.array(
        [r.decision_value for r in results]
    )


def _family_total(snapshot, name):
    """Sum a family's value over every labeled series (fleet total)."""
    return sum(entry["value"] for entry in snapshot[name]["series"])


# ----------------------------------------------------------------------
# Relation 1: identical streams -> identical deterministic snapshots.
# ----------------------------------------------------------------------
def test_identical_streams_identical_snapshots(served_engine, queries):
    kwargs = dict(max_batch=4)
    snap_a, dec_a = _serve_queue(served_engine, queries, **kwargs)
    snap_b, dec_b = _serve_queue(served_engine, queries, **kwargs)
    assert dec_a.tobytes() == dec_b.tobytes()
    # The second pass runs against a warmer engine store (module-scoped
    # engine), so store hit/miss totals legitimately differ; every queue-
    # level deterministic family must match exactly.
    for name in (
        "repro_serving_requests_total",
        "repro_serving_enqueued_total",
        "repro_serving_memo_hits_total",
        "repro_serving_batch_size",
    ):
        assert snap_a[name] == snap_b[name], name


def test_snapshot_excludes_wall_clock_families(served_engine, queries):
    snapshot, _ = _serve_queue(served_engine, queries, max_batch=4)
    assert not any(
        name.endswith(("_seconds", "_rps")) for name in snapshot
    ), sorted(snapshot)
    # ... while the full dictionary does carry them (they are exported,
    # just not part of the deterministic contract).


# ----------------------------------------------------------------------
# Relation 2: coalescing invariance -- totals don't depend on batching.
# ----------------------------------------------------------------------
def test_coalescing_invariant_totals(served_engine, queries):
    # memoize=False so the second configuration cannot be served from the
    # response memo; the engine store is shared (module fixture), so we pin
    # the queue-level totals plus the prediction bytes.
    snap_small, dec_small = _serve_queue(
        served_engine, queries, max_batch=2, memoize=False
    )
    snap_large, dec_large = _serve_queue(
        served_engine, queries, max_batch=16, memoize=False
    )
    assert dec_small.tobytes() == dec_large.tobytes()
    for name in ("repro_serving_requests_total", "repro_serving_enqueued_total"):
        assert _family_total(snap_small, name) == _family_total(snap_large, name)
    # Batch *sizes* differ by construction -- their sum may not.
    sizes_small = snap_small["repro_serving_batch_size"]["series"][0]
    sizes_large = snap_large["repro_serving_batch_size"]["series"][0]
    assert sizes_small["count"] >= sizes_large["count"]
    assert sizes_small["sum"] == sizes_large["sum"] == len(queries)


# ----------------------------------------------------------------------
# Relation 3: warm vs cold start -- the warm pass simulates nothing.
# ----------------------------------------------------------------------
def test_warm_start_serves_without_simulations(payload, queries, tmp_path):
    root = str(tmp_path / "snapshots")
    # The cold pass persists its cache; a fresh service over the same root
    # warms up from disk and serves the same stream.
    cold_snap, cold_dec = _serve_durable(payload, queries, root, snapshot=True)
    warm_snap, warm_dec = _serve_durable(payload, queries, root)
    assert warm_dec.tobytes() == cold_dec.tobytes()
    assert _family_total(cold_snap, "repro_backend_simulations_total") == len(
        np.unique(queries, axis=0)
    )
    assert _family_total(warm_snap, "repro_backend_simulations_total") == 0
    assert _family_total(warm_snap, "repro_store_misses_total") == 0
    assert _family_total(warm_snap, "repro_store_hits_total") == len(queries)
