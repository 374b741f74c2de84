"""Serving-side accounting: per-request latency, batch sizes, queue depth.

The async serving queue coalesces requests into batches, so the interesting
quantities are distributional: how long did each *request* wait end-to-end
(enqueue to result), how full were the flushed batches, how deep did the
queue get, and how many requests per second did the service sustain.
:class:`ServingMetrics` accumulates those counters thread-safely and exposes
the percentile summaries (p50 / p99) every serving dashboard -- and the
``BENCH_serving.json`` artifact -- quotes.

All getters are pure functions of the recorded samples, so two identical
request streams produce identical metric snapshots (up to wall-clock timing
fields, which are measurements by nature).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

import numpy as np

from ..exceptions import ReproError

__all__ = ["ServingMetrics", "RouterMetrics"]


class ServingMetrics:
    """Thread-safe accumulator of serving-queue accounting.

    The queue calls :meth:`record_enqueue` once per accepted request and
    :meth:`record_batch` once per flushed batch; everything else is derived.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._latencies_s: List[float] = []
        self._batch_sizes: List[int] = []
        self._batch_wall_s: List[float] = []
        self._queue_depth_high_water = 0
        self._total_enqueued = 0
        self._first_enqueue_t: Optional[float] = None
        self._last_flush_t: Optional[float] = None

    # ------------------------------------------------------------------
    def record_enqueue(self, queue_depth: int, now: float) -> None:
        """Account one accepted request and the queue depth after it."""
        with self._lock:
            self._total_enqueued += 1
            self._queue_depth_high_water = max(
                self._queue_depth_high_water, queue_depth
            )
            if self._first_enqueue_t is None:
                self._first_enqueue_t = now

    def record_batch(
        self, latencies_s: List[float], wall_s: float, now: float
    ) -> None:
        """Account one flushed batch: per-request latencies + batch wall time."""
        if not latencies_s:
            raise ReproError("a flushed batch must contain at least one request")
        with self._lock:
            self._latencies_s.extend(float(v) for v in latencies_s)
            self._batch_sizes.append(len(latencies_s))
            self._batch_wall_s.append(float(wall_s))
            self._last_flush_t = now

    # ------------------------------------------------------------------
    @property
    def total_requests(self) -> int:
        """Requests that have completed (appeared in a flushed batch)."""
        with self._lock:
            return len(self._latencies_s)

    @property
    def total_batches(self) -> int:
        """Number of flushed batches."""
        with self._lock:
            return len(self._batch_sizes)

    @property
    def queue_depth_high_water(self) -> int:
        """Deepest the pending buffer ever got."""
        with self._lock:
            return self._queue_depth_high_water

    def latency_samples(self) -> List[float]:
        """Every recorded end-to-end request latency, in completion order.

        The telemetry bindings mirror these into the serving latency
        histogram at scrape time (pull model: no per-request registry work).
        """
        with self._lock:
            return list(self._latencies_s)

    def batch_size_samples(self) -> List[int]:
        """Every flushed batch's size, in flush order."""
        with self._lock:
            return list(self._batch_sizes)

    def latency_percentile(self, q: float) -> float:
        """Latency percentile in seconds (``q`` in [0, 100])."""
        if not 0.0 <= q <= 100.0:
            raise ReproError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            if not self._latencies_s:
                raise ReproError("no completed requests recorded yet")
            return float(np.percentile(np.asarray(self._latencies_s), q))

    @property
    def p50_latency_s(self) -> float:
        """Median end-to-end request latency."""
        return self.latency_percentile(50.0)

    @property
    def p99_latency_s(self) -> float:
        """99th-percentile end-to-end request latency."""
        return self.latency_percentile(99.0)

    @property
    def mean_batch_size(self) -> float:
        """Average size of flushed batches (the coalescing win)."""
        with self._lock:
            if not self._batch_sizes:
                raise ReproError("no flushed batches recorded yet")
            return float(np.mean(self._batch_sizes))

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of observed serving time.

        Measured from the first enqueue to the last flush; a single
        instantaneous batch reports the sum of batch wall times instead so
        the rate stays finite.
        """
        with self._lock:
            n = len(self._latencies_s)
            if n == 0:
                raise ReproError("no completed requests recorded yet")
            span = self._serving_span_s()
        if span <= 0.0:
            raise ReproError("no elapsed serving time recorded")
        return n / span

    def _serving_span_s(self) -> float:
        """First enqueue to last flush, else the summed batch wall times."""
        if self._first_enqueue_t is not None and self._last_flush_t is not None:
            span = self._last_flush_t - self._first_enqueue_t
            if span > 0.0:
                return span
        return float(sum(self._batch_wall_s))

    def to_dict(self) -> Dict[str, float]:
        """JSON-friendly snapshot for benchmark artifacts and dashboards."""
        with self._lock:
            n = len(self._latencies_s)
            out: Dict[str, float] = {
                "total_requests": n,
                "total_batches": len(self._batch_sizes),
                "total_enqueued": self._total_enqueued,
                "queue_depth_high_water": self._queue_depth_high_water,
            }
            if n:
                lat = np.asarray(self._latencies_s)
                out.update(
                    {
                        "mean_batch_size": float(np.mean(self._batch_sizes)),
                        "p50_latency_s": float(np.percentile(lat, 50.0)),
                        "p99_latency_s": float(np.percentile(lat, 99.0)),
                        "max_latency_s": float(np.max(lat)),
                        "batch_wall_s_total": float(np.sum(self._batch_wall_s)),
                    }
                )
                span = self._serving_span_s()
                if span > 0.0:
                    out["throughput_rps"] = n / span
        return out


class RouterMetrics:
    """Aggregated accounting over a fleet of serving replicas.

    The replica router owns one :class:`ServingMetrics` per replica (each
    queue records its own latencies and batch sizes) plus the router-level
    counters only it can see: how requests were routed, how many were shed at
    the door, and how many had to fail over off a dead or saturated replica.
    :meth:`view` merges all of it into the one dashboard dictionary the
    durable-serving benchmark and the fault-injection suite consume --
    per-replica p50/p99 next to fleet-wide shed count and warm-hit ratio.
    """

    def __init__(self, replica_metrics: List[ServingMetrics]) -> None:
        if not replica_metrics:
            raise ReproError("a router needs at least one replica's metrics")
        self.replica_metrics = list(replica_metrics)
        self._lock = threading.Lock()
        self._routed = [0] * len(replica_metrics)
        self._shed = 0
        self._failovers = 0

    # ------------------------------------------------------------------
    def record_route(self, replica: int) -> None:
        """Account one request handed to ``replica``."""
        with self._lock:
            self._routed[replica] += 1

    def record_shed(self) -> None:
        """Account one request rejected by load shedding."""
        with self._lock:
            self._shed += 1

    def record_failover(self) -> None:
        """Account one request re-routed off its policy-chosen replica."""
        with self._lock:
            self._failovers += 1

    # ------------------------------------------------------------------
    @property
    def shed_count(self) -> int:
        """Requests rejected at the router."""
        with self._lock:
            return self._shed

    @property
    def total_routed(self) -> int:
        """Requests accepted and handed to some replica."""
        with self._lock:
            return sum(self._routed)

    @property
    def routed_per_replica(self) -> List[int]:
        """Accepted requests per replica index."""
        with self._lock:
            return list(self._routed)

    @property
    def failover_count(self) -> int:
        """Requests re-routed off their policy-chosen replica."""
        with self._lock:
            return self._failovers

    def fleet_latency_percentile(self, q: float) -> float:
        """Latency percentile over every replica's completed requests.

        Pools the per-replica samples so the fleet p99 reflects the traffic
        mix, not an average of per-replica percentiles.  Raises
        :class:`~repro.exceptions.ReproError` for an out-of-range ``q`` or
        when no replica has completed a request yet.
        """
        if not 0.0 <= q <= 100.0:
            raise ReproError(f"percentile must be in [0, 100], got {q}")
        pooled: List[float] = []
        for metrics in self.replica_metrics:
            pooled.extend(metrics.latency_samples())
        if not pooled:
            raise ReproError("no replica has completed a request yet")
        return float(np.percentile(np.asarray(pooled), q))

    def view(self, warm_hits: int = 0, warm_lookups: int = 0) -> Dict:
        """One aggregated dashboard snapshot.

        ``warm_hits`` / ``warm_lookups`` are supplied by the router (state
        store hits plus response-memo hits across replicas) because only it
        can reach into every replica's engine; the ratio they form is the
        fleet's warm-hit ratio -- the fraction of cache interest served
        without a circuit simulation.
        """
        with self._lock:
            routed = list(self._routed)
            shed = self._shed
            failovers = self._failovers
        replicas = []
        for metrics in self.replica_metrics:
            snapshot = metrics.to_dict()
            replicas.append(
                {
                    "total_requests": snapshot.get("total_requests", 0),
                    "p50_latency_s": snapshot.get("p50_latency_s"),
                    "p99_latency_s": snapshot.get("p99_latency_s"),
                    "mean_batch_size": snapshot.get("mean_batch_size"),
                    "queue_depth_high_water": snapshot.get(
                        "queue_depth_high_water", 0
                    ),
                }
            )
        out: Dict = {
            "num_replicas": len(self.replica_metrics),
            "routed_per_replica": routed,
            "total_routed": sum(routed),
            "shed_count": shed,
            "failover_count": failovers,
            "replicas": replicas,
        }
        if warm_lookups > 0:
            out["warm_hit_ratio"] = warm_hits / warm_lookups
        return out
