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

__all__ = ["ServingMetrics"]


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

