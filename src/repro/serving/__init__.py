"""Async serving layer over the Nystrom low-rank path.

Production traffic arrives one request at a time; the engine is cheapest per
point when it works in batches, and a real service must also survive
restarts and run more than one replica.  This package closes those gaps:

* :mod:`~repro.serving.queue` -- :class:`AsyncServingQueue`, a
  batch-coalescing request queue in front of
  :class:`~repro.approx.StreamingNystroemClassifier`: a work-conserving
  coalescer flushes up to ``max_batch`` pending requests as one
  :class:`~repro.engine.plan.KernelRowPlan` whenever it is idle (requests
  that arrive during a flush form the next batch), and resolves futures
  carrying per-request latency; queue depth / throughput / p50 / p99 land
  in :class:`repro.profiling.ServingMetrics`.
* :mod:`~repro.serving.store` -- :class:`SharedLandmarkStore`, the served
  model serialised once (landmark MPS out of the engine's state store,
  normalisation, linear model, scaler) and attached per worker process, so
  flushes fan out over a pool without ever re-simulating a landmark.
* :mod:`~repro.serving.persistence` -- :class:`PersistentStateStore`, the
  durable tier: content-addressed on-disk snapshots of the state store
  (atomic temp-write-then-rename, versioned checksummed manifest) plus an
  access-log-ordered :meth:`~PersistentStateStore.warm_up` prefetch so a
  restarted process serves its hottest keys simulation-free from the first
  request.
* :mod:`~repro.serving.router` -- :class:`ReplicaRouter`, ``N`` queue
  replicas attached from one serving payload behind pluggable routing
  policies (round-robin, least-depth, key-affinity), high-water load
  shedding, and one aggregated :class:`repro.profiling.RouterMetrics` view.

The layer's correctness contract -- byte-identical predictions no matter how
requests were coalesced, distributed, routed, or whether the process warm- or
cold-started -- rests on the engine's batch-composition-invariant padded
overlap sweep and the row-wise serving projections, and is enforced by
``tests/properties/test_metamorphic_serving.py``,
``tests/properties/test_router_metamorphic.py`` and the crash-recovery suite
in ``tests/serving/``.
"""

from .handle import ServingHandle, resolve_serving_payload, serve
from .persistence import (
    SNAPSHOT_VERSION,
    PersistentStateStore,
    SnapshotManifest,
    WarmUpReport,
)
from .queue import AsyncServingQueue, QueueTuning, ServedPrediction
from .router import (
    ROUTING_POLICIES,
    KeyAffinityPolicy,
    LeastDepthPolicy,
    ReplicaRouter,
    RoundRobinPolicy,
    RoutingPolicy,
    make_routing_policy,
)
from .store import (
    SharedLandmarkStore,
    attach_shared_store,
    shared_store_kernel_rows,
)

__all__ = [
    "AsyncServingQueue",
    "QueueTuning",
    "ServedPrediction",
    "ServingHandle",
    "serve",
    "resolve_serving_payload",
    "SharedLandmarkStore",
    "attach_shared_store",
    "shared_store_kernel_rows",
    "PersistentStateStore",
    "SnapshotManifest",
    "WarmUpReport",
    "SNAPSHOT_VERSION",
    "ReplicaRouter",
    "RoutingPolicy",
    "RoundRobinPolicy",
    "LeastDepthPolicy",
    "KeyAffinityPolicy",
    "ROUTING_POLICIES",
    "make_routing_policy",
]
