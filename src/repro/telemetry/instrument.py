"""Pull-model bindings from the library's accounting silos to the registry.

Each ``bind_*`` helper attaches one *collector* to a
:class:`~repro.telemetry.registry.MetricsRegistry`: a callback that runs at
collection time (a scrape, a snapshot, a bench dump), reads the bound
object's existing counters, and mirrors them into named metric families.
The bound objects are **duck-typed** -- this module never imports
``serving``, ``engine`` or ``backends``, so telemetry stays a leaf package
and the hot paths those silos already instrument gain zero per-request work.

Collector names are stable per bound slot (``queue-0``, ``backend-0-primary``
...), so re-binding a slot replaces its collector instead of stacking a
second reader.  A queue's collectors read the queue's *live* classifier and
engine at every collection: a swap installs both anew, and the series follow
it.

Metric families follow the registry's naming conventions: ``repro_`` prefix,
``_total`` for monotone counts, ``_seconds`` reserved for wall-clock values
(which :meth:`MetricsRegistry.deterministic_snapshot` excludes).
"""

from __future__ import annotations

import math
from typing import List, Optional

from .registry import MetricsRegistry

__all__ = [
    "bind_queue",
    "bind_state_store",
    "bind_backend",
    "bind_engine",
    "bind_classifier_coverage",
    "bind_drift_controller",
]

#: Batch sizes are small integers; powers of two up to a generous max batch.
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def bind_queue(
    registry: MetricsRegistry,
    queue,
    replica: str = "0",
    bind_engine_too: bool = True,
) -> List[str]:
    """Publish one serving queue's metrics (and, by default, its engine's).

    ``queue`` is anything with the :class:`repro.serving.AsyncServingQueue`
    surface: a ``metrics`` accounting object, ``memo_hits``, ``pending``.
    ``replica`` is the series label.  The engine's store and backend are
    looked up through ``queue.classifier`` at every collection, so after a
    swap the series read the engine that serves.  Returns the registered
    collector names.
    """
    requests = registry.counter(
        "repro_serving_requests_total",
        "Requests completed by the serving queue (appeared in a flushed batch).",
        ("replica",),
    )
    enqueued = registry.counter(
        "repro_serving_enqueued_total",
        "Requests accepted by the serving queue.",
        ("replica",),
    )
    batches = registry.counter(
        "repro_serving_batches_total",
        "Batches flushed by the coalescer.",
        ("replica",),
    )
    memo_hits = registry.counter(
        "repro_serving_memo_hits_total",
        "Requests answered from the response memo without touching the engine.",
        ("replica",),
    )
    depth_high_water = registry.gauge(
        "repro_serving_queue_depth_high_water",
        "Deepest the pending buffer has ever been.",
        ("replica",),
    )
    pending = registry.gauge(
        "repro_serving_queue_pending",
        "Requests accepted but not yet flushed, at scrape time.",
        ("replica",),
    )
    latency = registry.histogram(
        "repro_serving_request_latency_seconds",
        "End-to-end request latency (enqueue to result), in seconds.",
        ("replica",),
    )
    batch_size = registry.histogram(
        "repro_serving_batch_size",
        "Size of flushed batches (the coalescing win).",
        ("replica",),
        buckets=BATCH_SIZE_BUCKETS,
    )
    throughput = registry.gauge(
        "repro_serving_throughput_rps",
        "Completed requests per second of observed serving time.",
        ("replica",),
    )
    model_version = registry.gauge(
        "repro_serving_model_version",
        "Version of the model slot currently answering requests.",
        ("replica",),
    )
    swaps = registry.counter(
        "repro_serving_swaps_total",
        "Atomic model swaps installed on the serving queue.",
        ("replica",),
    )

    def collect() -> None:
        metrics = queue.metrics
        snapshot = metrics.to_dict()
        requests.labels(replica=replica).set_total(snapshot["total_requests"])
        enqueued.labels(replica=replica).set_total(snapshot["total_enqueued"])
        batches.labels(replica=replica).set_total(snapshot["total_batches"])
        memo_hits.labels(replica=replica).set_total(queue.memo_hits)
        depth_high_water.labels(replica=replica).set(
            snapshot["queue_depth_high_water"]
        )
        pending.labels(replica=replica).set(queue.pending)
        latency.labels(replica=replica).replace(metrics.latency_samples())
        batch_size.labels(replica=replica).replace(metrics.batch_size_samples())
        throughput.labels(replica=replica).set(snapshot.get("throughput_rps", 0.0))
        model_version.labels(replica=replica).set(
            getattr(queue, "model_version", 0)
        )
        swaps.labels(replica=replica).set_total(getattr(queue, "swap_count", 0))

    names = [registry.register_collector(collect, name=f"queue-{replica}")]
    if bind_engine_too and getattr(queue, "classifier", None) is not None:
        engine = _Live(lambda: queue.classifier.feature_map.engine)
        names.extend(bind_engine(registry, engine, replica=replica))
    return names


class _Live:
    """Reads every attribute off whatever ``source()`` returns at the time."""

    def __init__(self, source) -> None:
        self._source = source

    def __getattr__(self, name: str):
        return getattr(self._source(), name)


def bind_state_store(
    registry: MetricsRegistry, store, replica: str = "0"
) -> List[str]:
    """Publish one content-addressed state store's hit/miss/eviction stats.

    ``store`` is anything with a ``stats()`` returning the
    :class:`repro.engine.cache.CacheStats` surface.
    """
    hits = registry.counter(
        "repro_store_hits_total",
        "State-store lookups answered from the cache.",
        ("replica",),
    )
    misses = registry.counter(
        "repro_store_misses_total",
        "State-store lookups that required an encode.",
        ("replica",),
    )
    evictions = registry.counter(
        "repro_store_evictions_total",
        "Entries evicted from the state store under its byte budget.",
        ("replica",),
    )
    entries = registry.gauge(
        "repro_store_entries",
        "Entries currently resident in the state store.",
        ("replica",),
    )
    bytes_in_use = registry.gauge(
        "repro_store_bytes",
        "Bytes currently resident in the state store.",
        ("replica",),
    )
    hit_ratio = registry.gauge(
        "repro_store_hit_ratio",
        "Fraction of state-store lookups answered from the cache.",
        ("replica",),
    )

    def collect() -> None:
        stats = store.stats()
        hits.labels(replica=replica).set_total(stats.hits)
        misses.labels(replica=replica).set_total(stats.misses)
        evictions.labels(replica=replica).set_total(stats.evictions)
        entries.labels(replica=replica).set(stats.num_entries)
        bytes_in_use.labels(replica=replica).set(stats.bytes_in_use)
        hit_ratio.labels(replica=replica).set(stats.hit_rate)

    return [registry.register_collector(collect, name=f"store-{replica}")]


def bind_backend(registry: MetricsRegistry, backend, replica: str = "0") -> List[str]:
    """Publish one backend's primitive counts and measured wall timings.

    ``backend`` is a :class:`repro.backends.Backend`; its
    :meth:`~repro.backends.Backend.lifetime_summary` is the source of every
    value.  The ``device`` label comes from the backend's cost-model name, so
    the series are per device.  ``role`` is always
    ``"primary"`` (an engine has one backend); the label stays so exported
    series keep their names.
    """
    labelnames = ("device", "replica", "role")
    labels = {"device": backend.cost_model.name, "replica": replica, "role": "primary"}

    simulations = registry.counter(
        "repro_backend_simulations_total",
        "Circuit simulations accounted by the backend (batching-invariant).",
        labelnames,
    )
    inner_products = registry.counter(
        "repro_backend_inner_products_total",
        "MPS inner products accounted by the backend (batching-invariant).",
        labelnames,
    )
    encode_batches = registry.counter(
        "repro_encode_batches_total",
        "Stacked encodes executed (simulate_batch calls that encoded rows).",
        labelnames,
    )
    timing_gauges = {
        key: registry.gauge(
            f"repro_backend_{key}",
            f"Accumulated backend {key.replace('_', ' ')} (measured).",
            labelnames,
        )
        for key in (
            "wall_simulation_time_seconds",
            "wall_inner_product_time_seconds",
        )
    }

    def collect() -> None:
        # The backend's counters never reset, as a counter family requires.
        summary = backend.lifetime_summary()
        simulations.labels(**labels).set_total(summary["num_simulations"])
        inner_products.labels(**labels).set_total(summary["num_inner_products"])
        encode_batches.labels(**labels).set_total(summary["num_encode_batches"])
        for key, gauge in timing_gauges.items():
            attr = key.replace("_seconds", "_s")
            gauge.labels(**labels).set(summary[attr])

    return [registry.register_collector(collect, name=f"backend-{replica}-primary")]


def bind_engine(registry: MetricsRegistry, engine, replica: str = "0") -> List[str]:
    """Publish one kernel engine's store and backend.

    Both are read off ``engine`` at every collection, not bound once.
    """
    names: List[str] = []
    if getattr(engine, "store", None) is not None:
        store = _Live(lambda: engine.store)
        names.extend(bind_state_store(registry, store, replica=replica))
    if getattr(engine, "backend", None) is not None:
        backend = _Live(lambda: engine.backend)
        names.extend(bind_backend(registry, backend, replica=replica))
    return names


def bind_classifier_coverage(
    registry: MetricsRegistry, classifier
) -> Optional[List[str]]:
    """Publish a streaming classifier's rolling conformal-coverage gauge.

    ``classifier`` is anything with ``rolling_coverage()`` /
    ``feedback_count`` (the :class:`repro.approx.StreamingNystroemClassifier`
    surface after ``attach_conformal``).  Coverage drifting below the
    conformal guarantee is the live drift signal the drift controller
    acts on.  With no feedback in the window the gauge reads NaN (no
    evidence), never 0.0 (the worst coverage).
    """
    coverage = registry.gauge(
        "repro_conformal_rolling_coverage",
        "Rolling fraction of labelled feedback covered by the conformal sets.",
    )
    feedback = registry.counter(
        "repro_conformal_feedback_total",
        "Labelled feedback points recorded against the conformal sets.",
    )

    def collect() -> None:
        feedback.set_total(getattr(classifier, "feedback_count", 0))
        value = classifier.rolling_coverage()
        coverage.set(math.nan if value is None else value)

    return [registry.register_collector(collect, name="conformal-coverage")]


def bind_drift_controller(
    registry: MetricsRegistry, controller
) -> List[str]:
    """Publish the drift-adaptation control loop's state.

    ``controller`` is anything with the
    :class:`repro.approx.DriftController` surface: ``rolling_coverage()``,
    ``feedback_count``, ``alarm_active``, ``alarm_count``, ``refit_count``,
    ``swap_count``, ``buffered_samples``.  Together with the queue's
    ``repro_serving_model_version`` gauge these four counters tell the whole
    adaptation story on a dashboard: coverage dips, the alarm latches, a
    refit and a swap land, coverage recovers.  The coverage gauge reads NaN
    while the controller's window is empty.
    """
    coverage = registry.gauge(
        "repro_drift_rolling_coverage",
        "Rolling conformal coverage observed by the drift controller.",
    )
    alarm = registry.gauge(
        "repro_drift_alarm_active",
        "Whether the drift alarm is currently latched (1) or armed (0).",
    )
    alarms = registry.counter(
        "repro_drift_alarms_total",
        "Times the rolling coverage crossed below the hysteresis band.",
    )
    refits = registry.counter(
        "repro_drift_refits_total",
        "Shadow refits completed by the drift controller.",
    )
    swaps = registry.counter(
        "repro_drift_swaps_total",
        "Adapted models installed into the serving tier.",
    )
    feedback = registry.counter(
        "repro_drift_feedback_total",
        "Labelled feedback points ingested by the drift controller.",
    )
    buffered = registry.gauge(
        "repro_drift_buffered_samples",
        "Labelled rows currently buffered as shadow-fit material.",
    )

    def collect() -> None:
        value = controller.rolling_coverage()
        coverage.set(math.nan if value is None else value)
        alarm.set(1.0 if getattr(controller, "alarm_active", False) else 0.0)
        alarms.set_total(getattr(controller, "alarm_count", 0))
        refits.set_total(getattr(controller, "refit_count", 0))
        swaps.set_total(getattr(controller, "swap_count", 0))
        feedback.set_total(getattr(controller, "feedback_count", 0))
        buffered.set(getattr(controller, "buffered_samples", 0))

    return [registry.register_collector(collect, name="drift-controller")]

