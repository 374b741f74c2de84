"""Multi-replica routing tier over the async serving queue.

One :class:`~repro.serving.AsyncServingQueue` is a single coalescer thread
over a single engine; a traffic-facing deployment runs several.
:class:`ReplicaRouter` builds ``N`` replicas from **one** serving payload
(each replica attaches the same serialised landmark states, linear model and
scaler, so all of them produce byte-identical predictions) and places every
request with a pluggable :class:`RoutingPolicy`:

* ``round-robin``  -- cycle through the replicas; even load, no state;
* ``least-depth``  -- the replica with the fewest pending requests; best
  tail latency under bursty arrivals;
* ``key-affinity`` -- a stable hash of the raw row bytes; the same query
  always lands on the same replica, so its state-store entry and response
  memo stay hot on exactly one engine instead of being duplicated ``N``
  times.

The router is also the admission controller.  It admits each row once
(:func:`~repro.serving.queue.admit_row`) and hands it to the chosen queue
with its memo key; the queue does not admit it again.  Reading the replica
depths a policy sees takes no queue lock.  With
``queue_depth_high_water`` set, a request whose chosen replica is saturated
first fails over to the shallowest replica, and is **shed** (rejected with
:class:`~repro.exceptions.LoadShedError`) only when every replica is at or
above the high-water mark -- bounded queues instead of unbounded latency.
Dead replicas (crashed, drained via :meth:`kill_replica`, or closed because
their coalescer failed) are routed around; predictions stay byte-identical
because every survivor serves from the same attached payload.

Aggregated accounting lands in one :class:`~repro.profiling.RouterMetrics`
(per-replica p50/p99, routed counts, shed count, fleet warm-hit ratio), and
an optional :class:`~repro.serving.PersistentStateStore` root makes the whole
fleet durable: replicas warm up from the latest snapshot at construction and
:meth:`snapshot` persists the union of their caches at shutdown.

Routing never changes results, only placement -- the metamorphic suite pins
predictions byte-identical across policies, replica counts and warm/cold
starts.
"""

from __future__ import annotations

import hashlib
import threading
from concurrent.futures import Future
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..approx import StreamingNystroemClassifier
from ..config import ServingConfig
from ..exceptions import LoadShedError, ServingError
from ..profiling import RouterMetrics, ServingMetrics
from ..telemetry.tracing import TRACER
from .persistence import PersistentStateStore, WarmUpReport
from .queue import AsyncServingQueue, ServedPrediction, admit_row

__all__ = [
    "RoutingPolicy",
    "RoundRobinPolicy",
    "LeastDepthPolicy",
    "KeyAffinityPolicy",
    "ROUTING_POLICIES",
    "make_routing_policy",
    "ReplicaRouter",
]


class RoutingPolicy:
    """Chooses a replica for one request.

    ``select`` receives the request's canonical row bytes and the pending
    queue depths of the currently *alive* replicas, and returns an index into
    that list.  Policies are pure placement: they must not assume the depth
    list keeps one length across calls (replicas die), and they never affect
    prediction values -- only which engine computes them.
    """

    name = "abstract"

    def select(self, key: bytes, depths: Sequence[int]) -> int:
        """Index (into ``depths``) of the replica to receive this request."""
        raise NotImplementedError


class RoundRobinPolicy(RoutingPolicy):
    """Cycle through the alive replicas in submission order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def select(self, key: bytes, depths: Sequence[int]) -> int:
        index = self._next % len(depths)
        self._next += 1
        return index


class LeastDepthPolicy(RoutingPolicy):
    """Send each request to the replica with the fewest pending requests.

    Ties break toward the lowest index so placement is deterministic for a
    deterministic arrival sequence.
    """

    name = "least-depth"

    def select(self, key: bytes, depths: Sequence[int]) -> int:
        return min(range(len(depths)), key=lambda i: (depths[i], i))


class KeyAffinityPolicy(RoutingPolicy):
    """Stable-hash the row bytes so a key always lands on the same replica.

    Cache locality: a hot query's MPS state and memoised response live on
    exactly one replica instead of being re-derived on all of them.  The hash
    is content-addressed (blake2b of the canonical float64 row bytes), so
    placement is reproducible across processes and restarts while the fleet
    size is unchanged.
    """

    name = "key-affinity"

    def select(self, key: bytes, depths: Sequence[int]) -> int:
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return int.from_bytes(digest, "big") % len(depths)


ROUTING_POLICIES = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    LeastDepthPolicy.name: LeastDepthPolicy,
    KeyAffinityPolicy.name: KeyAffinityPolicy,
}


def make_routing_policy(policy: str | RoutingPolicy) -> RoutingPolicy:
    """Resolve a policy instance from a registry name (or pass one through)."""
    if isinstance(policy, RoutingPolicy):
        return policy
    try:
        return ROUTING_POLICIES[policy]()
    except KeyError:
        raise ServingError(
            f"unknown routing policy {policy!r}; "
            f"expected one of {sorted(ROUTING_POLICIES)}"
        ) from None


class ReplicaRouter:
    """Route requests over ``N`` serving-queue replicas of one model.

    Parameters
    ----------
    payload:
        One :meth:`repro.approx.StreamingNystroemClassifier.serving_payload`
        dict; every replica attaches it, so the model is serialised once
        however many replicas run.
    num_replicas:
        Fleet size.
    policy:
        Routing policy registry name (or an instance).
    queue_depth_high_water:
        Load-shedding threshold: a request is shed when every alive
        replica's pending depth is at or above this value.  ``None``
        disables shedding.  Fixed for the router's lifetime.
    persistence_root:
        Optional directory for the durable tier.  Each replica's engine
        store becomes a :class:`PersistentStateStore` rooted there, warmed
        from the latest snapshot before the router accepts traffic;
        :meth:`snapshot` persists the union of the fleet's caches.
    warm_up:
        Whether to run the warm-up prefetch at construction (requires
        ``persistence_root``).
    warm_max_keys / warm_max_bytes:
        Budgets forwarded to :meth:`PersistentStateStore.warm_up`.
    queue_kwargs:
        Forwarded to every :class:`AsyncServingQueue`: ``max_batch``,
        ``memoize`` and ``memo_capacity``.  Each replica's
        coalescer is work-conserving, so there is no wait knob.
    """

    def __init__(
        self,
        payload: Dict,
        num_replicas: int = 2,
        policy: str | RoutingPolicy = "round-robin",
        queue_depth_high_water: int | None = None,
        persistence_root=None,
        warm_up: bool = True,
        warm_max_keys: int | None = None,
        warm_max_bytes: int | None = None,
        **queue_kwargs,
    ) -> None:
        if num_replicas < 1:
            raise ServingError(f"num_replicas must be >= 1, got {num_replicas}")
        if queue_depth_high_water is not None and queue_depth_high_water < 1:
            raise ServingError(
                f"queue_depth_high_water must be >= 1 or None, "
                f"got {queue_depth_high_water}"
            )
        self.num_replicas = int(num_replicas)
        self.high_water = queue_depth_high_water
        self.policy = make_routing_policy(policy)
        self.persistence_root = persistence_root

        self._lock = threading.Lock()
        self._queues: List[AsyncServingQueue] = []
        self._stores: List[Optional[PersistentStateStore]] = []
        self.warm_up_reports: List[WarmUpReport] = []

        replica_metrics: List[ServingMetrics] = []
        for _ in range(self.num_replicas):
            store: Optional[PersistentStateStore] = None
            if persistence_root is not None:
                store = PersistentStateStore(persistence_root)
            classifier = StreamingNystroemClassifier.from_serving_payload(
                payload, store=store
            )
            if store is not None:
                # The engine exists only now; stamp its compute-policy
                # fingerprint so snapshots are checked on every restore.
                store.fingerprint = classifier.feature_map.engine.fingerprint
                if warm_up:
                    with TRACER.span("serving.warm_up") as sp:
                        report = store.warm_up(
                            max_keys=warm_max_keys, max_bytes=warm_max_bytes
                        )
                        if sp is not None:
                            sp.set_attribute("replica", len(self._queues))
                            sp.set_attribute("loaded", report.loaded)
                    self.warm_up_reports.append(report)
            metrics = ServingMetrics()
            replica_metrics.append(metrics)
            self._stores.append(store)
            self._queues.append(
                AsyncServingQueue(classifier, metrics=metrics, **queue_kwargs)
            )
        self.metrics = RouterMetrics(replica_metrics)
        #: Indices of the replicas requests are placed on.
        self._alive: Tuple[int, ...] = tuple(range(self.num_replicas))
        self.swap_count = 0
        self._expected_features = self._queues[0].classifier.feature_map.engine.ansatz.num_features

    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, payload: Dict, config: ServingConfig, **overrides) -> "ReplicaRouter":
        """Build a router from a declarative :class:`~repro.config.ServingConfig`.

        The fleet shape and durability come from the config itself, the
        two performance knobs -- ``max_batch`` and
        ``queue_depth_high_water`` -- from its nested
        :class:`~repro.config.TuningConfig` (``config.tuning``).  They are
        constructor values: nothing changes them while the fleet runs.
        ``overrides`` replace or extend the resulting constructor keywords
        (e.g. ``memo_capacity``).
        """
        tuning = config.tuning
        kwargs = dict(
            num_replicas=config.num_replicas,
            policy=config.routing_policy,
            queue_depth_high_water=tuning.queue_depth_high_water,
            persistence_root=config.snapshot_root,
            warm_max_keys=config.warm_max_keys,
            max_batch=tuning.max_batch,
            memoize=config.memoize,
        )
        kwargs.update(overrides)
        return cls(payload, **kwargs)

    def __enter__(self) -> "ReplicaRouter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    @property
    def alive_replicas(self) -> List[int]:
        """Indices of replicas currently accepting traffic.

        A replica whose queue closed without the router's knowledge (its
        coalescer failed) is not alive, even before a request finds out.
        """
        with self._lock:
            return [i for i in self._alive if not self._queues[i].closed]

    @property
    def queues(self) -> List[AsyncServingQueue]:
        """The per-replica serving queues, in replica-index order.

        Exposed for the telemetry bindings (each replica's queue publishes
        under its own ``replica`` label); routing still goes through
        :meth:`submit`.
        """
        return list(self._queues)

    @property
    def replica_stores(self) -> List[Optional[PersistentStateStore]]:
        """Per-replica durable stores (``None`` entries when not durable)."""
        return list(self._stores)

    def pending(self) -> List[int]:
        """Pending queue depth per replica (dead replicas report 0)."""
        return [q.pending for q in self._queues]

    # ------------------------------------------------------------------
    def submit(self, row: np.ndarray) -> "Future[ServedPrediction]":
        """Route one raw feature row; returns the chosen replica's future.

        The row is admitted here, once (:func:`admit_row`), and handed to
        the replica with its memo key.  Placement order: the policy picks
        among alive replicas; a saturated pick fails over to the shallowest
        alive replica; if that one is saturated too the request is shed.  A
        replica that died between selection and hand-off is marked dead and
        the request retries over the survivors, so single-replica death
        never fails a request.
        """
        row = admit_row(row, self._expected_features)
        key = row.tobytes()
        while True:
            chosen = self._place(key)
            try:
                future = self._queues[chosen]._enqueue(row, key)
            except ServingError:
                # The replica closed under us: route around it from now on.
                with self._lock:
                    self._alive = tuple(i for i in self._alive if i != chosen)
                self.metrics.record_failover()
                continue
            self.metrics.record_route(chosen)
            return future

    def _place(self, key: bytes) -> int:
        """Pick an alive replica for ``key``, shedding under saturation."""
        with self._lock:
            alive = self._alive
            if not alive:
                raise ServingError("every replica is dead; router cannot serve")
            depths = [self._queues[i].pending for i in alive]
            pos = self.policy.select(key, depths)
            if not 0 <= pos < len(alive):
                raise ServingError(
                    f"routing policy {self.policy.name!r} returned invalid "
                    f"index {pos} for {len(alive)} replicas"
                )
            if self.high_water is not None and depths[pos] >= self.high_water:
                fallback = min(range(len(alive)), key=lambda j: (depths[j], j))
                if depths[fallback] >= self.high_water:
                    self.metrics.record_shed()
                    raise LoadShedError(
                        f"all {len(alive)} alive replicas are at or above the "
                        f"high-water depth {self.high_water}; request shed"
                    )
                if fallback != pos:
                    self.metrics.record_failover()
                pos = fallback
            return alive[pos]

    def submit_many(
        self, rows: Sequence[np.ndarray] | np.ndarray
    ) -> List["Future[ServedPrediction]"]:
        """Route many rows; sheds propagate as :class:`LoadShedError`."""
        return [self.submit(row) for row in np.asarray(rows, dtype=float)]

    def flush(self) -> None:
        """Flush every alive replica's pending requests."""
        for index in self.alive_replicas:
            self._queues[index].flush()

    # ------------------------------------------------------------------
    @property
    def model_version(self) -> int:
        """The fleet's model version: the maximum over alive replicas.

        Between :meth:`swap_payload` calls every alive replica agrees on the
        version; during one the maximum is the version being rolled out.
        """
        alive = self.alive_replicas
        if not alive:
            raise ServingError("every replica is dead; router has no model")
        return max(self._queues[i].model_version for i in alive)

    def swap_payload(self, payload: Dict, version: int | None = None) -> int:
        """Roll one new serving payload out across every alive replica.

        Each replica performs its own atomic
        :meth:`AsyncServingQueue.swap_payload` -- in-flight flushes complete
        against the old model, queued requests score under the new one -- so
        the fleet keeps serving throughout the rollout.  Every replica is
        installed at the **same** fleet version (one more than the current
        fleet maximum unless ``version`` is given), which is what lets the
        metamorphic suite partition a request stream by the
        ``model_version`` stamped on each prediction.  Returns the installed
        version.
        """
        alive = self.alive_replicas
        if not alive:
            raise ServingError("every replica is dead; router cannot swap")
        current = max(self._queues[i].model_version for i in alive)
        new_version = current + 1 if version is None else int(version)
        if new_version <= current:
            raise ServingError(
                f"swap version {new_version} must be greater than the fleet "
                f"version {current}"
            )
        with TRACER.span("serving.fleet_swap") as sp:
            for index in alive:
                self._queues[index].swap_payload(payload, version=new_version)
            if sp is not None:
                sp.set_attribute("version", new_version)
                sp.set_attribute("replicas", len(alive))
        self.swap_count += 1
        return new_version

    # ------------------------------------------------------------------
    def kill_replica(self, index: int) -> None:
        """Drain and stop one replica; traffic routes around it afterwards.

        The replica's queue is closed (its in-flight batch completes and
        pending futures resolve), its cached states and access tallies are
        folded into the first surviving durable store so a later
        :meth:`snapshot` still covers them, and the router never places
        another request on it.  Used by the fault-injection suite to model a
        rolling restart / replica crash.
        """
        with self._lock:
            if not 0 <= index < self.num_replicas:
                raise ServingError(f"no replica with index {index}")
            if index not in self._alive:
                return
            self._alive = tuple(i for i in self._alive if i != index)
        self._queues[index].close()
        dead_store = self._stores[index]
        survivor = self._first_alive_store()
        if dead_store is not None and survivor is not None:
            if len(dead_store):
                survivor.load_entries(dead_store.dump_entries())
            survivor.record_accesses(dead_store.access_counts)

    def _first_alive_store(self) -> Optional[PersistentStateStore]:
        with self._lock:
            for i in self._alive:
                if self._stores[i] is not None:
                    return self._stores[i]
        return None

    # ------------------------------------------------------------------
    def snapshot(self):
        """Persist the union of every replica's cache to the durable tier.

        Entries are merged into the first alive replica's store (a pure
        superset: extra warm entries never change predictions) together with
        the fleet's access tallies, then one snapshot is written.  Raises
        when the router was built without ``persistence_root``.
        """
        target = self._first_alive_store()
        if target is None:
            raise ServingError(
                "router has no durable tier; construct with persistence_root"
            )
        for i, store in enumerate(self._stores):
            if store is None or store is target or i not in self._alive:
                continue
            if len(store):
                target.load_entries(store.dump_entries())
            target.record_accesses(store.access_counts)
        return target.snapshot()

    def close(self, snapshot: bool = False) -> None:
        """Flush and stop every replica (optionally snapshotting first)."""
        if snapshot:
            self.snapshot()
        for queue in self._queues:
            queue.close()
        with self._lock:
            self._alive = ()

    # ------------------------------------------------------------------
    def metrics_view(self) -> Dict:
        """The aggregated fleet dashboard (see :class:`RouterMetrics`).

        The warm-hit ratio counts a request as *warm* when it was answered
        without a circuit simulation: a state-store hit or a response-memo
        hit on whichever replica served it.
        """
        warm_hits = 0
        warm_lookups = 0
        for queue in self._queues:
            stats = queue.classifier.feature_map.engine.cache_stats()
            if stats is not None:
                warm_hits += stats.hits
                warm_lookups += stats.lookups
            warm_hits += queue.memo_hits
            warm_lookups += queue.memo_hits
        return self.metrics.view(warm_hits=warm_hits, warm_lookups=warm_lookups)
