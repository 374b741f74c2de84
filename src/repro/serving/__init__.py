"""Async serving layer over the Nystrom low-rank path.

Production traffic arrives one request at a time; the engine is cheapest per
point when it works in batches, and a real service must also survive
restarts.  This package closes those gaps:

* :mod:`~repro.serving.queue` -- :class:`AsyncServingQueue`, a
  batch-coalescing request queue in front of
  :class:`~repro.approx.StreamingNystroemClassifier`: a work-conserving
  coalescer flushes up to ``max_batch`` pending requests as one sweep of
  their states against the landmarks' :class:`~repro.engine.StackedStateBlock`
  whenever it is idle (requests that arrive during a flush form the next
  batch), and resolves futures
  carrying per-request latency; queue depth / throughput / p50 / p99 land
  in :class:`repro.profiling.ServingMetrics`.  A flush is scored in the
  queue's own process by
  :meth:`~repro.approx.StreamingNystroemClassifier.classify`, the one
  scoring path of a served row; a request whose own score raises fails
  alone.
* :mod:`~repro.serving.persistence` -- :class:`PersistentStateStore`, the
  durable tier: content-addressed on-disk snapshots of the state store
  (atomic temp-write-then-rename, versioned checksummed manifest) plus an
  access-log-ordered :meth:`~PersistentStateStore.warm_up` prefetch so a
  restarted process serves its hottest keys simulation-free from the first
  request.
* :mod:`~repro.serving.handle` -- :func:`serve` and :class:`ServingHandle`:
  one call stands up one queue (and, with ``snapshot_root``, one warmed
  durable store) from a :class:`~repro.config.ServingConfig`.

The layer's correctness contract -- byte-identical predictions no matter how
requests were coalesced, whether a swap landed, or whether the process warm-
or cold-started -- rests on the engine's batch-composition-invariant padded
overlap sweep and the row-wise serving projections, and is enforced by
``tests/properties/test_metamorphic_serving.py``,
``tests/properties/test_swap_metamorphic.py`` and the crash-recovery suite
in ``tests/serving/``.
"""

from .handle import ServingHandle, resolve_serving_payload, serve
from .persistence import (
    SNAPSHOT_VERSION,
    PersistentStateStore,
    SnapshotManifest,
    WarmUpReport,
)
from .queue import AsyncServingQueue, ServedPrediction

__all__ = [
    "AsyncServingQueue",
    "ServedPrediction",
    "ServingHandle",
    "serve",
    "resolve_serving_payload",
    "PersistentStateStore",
    "SnapshotManifest",
    "WarmUpReport",
    "SNAPSHOT_VERSION",
]
