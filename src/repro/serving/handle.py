"""One-call serving: ``repro.serve(model, config)`` -> :class:`ServingHandle`.

Standing a service up is otherwise a three-step dance -- extract a
``serving_payload()``, build an :class:`AsyncServingQueue` (and, for a
durable service, a :class:`PersistentStateStore` warmed from its latest
snapshot), and wire the telemetry endpoint.  :func:`serve` collapses that
into one call over one declarative :class:`~repro.config.ServingConfig`, and
:class:`ServingHandle` is the single object a deployment talks to
afterwards: ``submit`` traffic, ``swap`` models, read ``metrics``, ``close``
cleanly.

A service is one queue: one coalescer thread over one engine.  The config's
four values are read once, when the service is built, and stay fixed while
it runs.  The handle is composition, not replacement: it calls the queue and
the store a manual caller would build, so everything the test suites pin
about those layers (byte-identical predictions, atomic swaps, warm restarts)
holds verbatim under the one-call surface.
"""

from __future__ import annotations

import gc
from concurrent.futures import Future
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..approx import StreamingNystroemClassifier
from ..config import ServingConfig
from ..exceptions import ServingError
from ..telemetry.tracing import TRACER
from .persistence import PersistentStateStore, WarmUpReport
from .queue import AsyncServingQueue, ServedPrediction

__all__ = ["ServingHandle", "serve", "resolve_serving_payload"]


def resolve_serving_payload(model_or_payload) -> Dict:
    """A serving payload from whatever the caller has in hand.

    Accepts a ready payload mapping (passed through), or any object with a
    ``serving_payload()`` method -- a fitted
    :class:`~repro.approx.StreamingNystroemClassifier`, a
    :class:`~repro.core.QuantumKernelInferenceEngine`, a drift controller's
    shadow model, ...
    """
    if isinstance(model_or_payload, Mapping):
        return dict(model_or_payload)
    payload_method = getattr(model_or_payload, "serving_payload", None)
    if callable(payload_method):
        return payload_method()
    raise ServingError(
        "serve() needs a serving payload mapping or an object with a "
        f"serving_payload() method, got {type(model_or_payload).__name__}"
    )


class ServingHandle:
    """The one object a deployment holds onto after :func:`serve`.

    Wraps the serving :attr:`queue`, the optional durable :attr:`store` and
    the optional telemetry :attr:`endpoint` behind a small stable surface;
    all three stay reachable for anything the surface doesn't cover.
    Usable as a context manager.
    """

    def __init__(
        self,
        queue: AsyncServingQueue,
        config: ServingConfig,
        store: Optional[PersistentStateStore] = None,
        warm_up_report: Optional[WarmUpReport] = None,
        endpoint=None,
    ) -> None:
        self.queue = queue
        self.config = config
        self.store = store
        #: What the warm-up loaded before the first request (``None`` when
        #: the service has no durable tier).
        self.warm_up_report = warm_up_report
        self.endpoint = endpoint
        self._closed = False
        # perfbench/workloads.py and perfbench/smoke.py read
        # ``handle.router.queues[0]``; these two names keep them working.
        # Drop both together with ``workers=0`` in the next benchmark change.
        self.queues = (queue,)

    @property
    def router(self) -> "ServingHandle":
        """The handle itself (see :attr:`queues`)."""
        return self

    # ------------------------------------------------------------------
    def __enter__(self) -> "ServingHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    def submit(self, row: np.ndarray) -> "Future[ServedPrediction]":
        """Queue one raw feature row; returns a future of the prediction."""
        return self.queue.submit(row)

    def submit_many(
        self, rows: Sequence[np.ndarray] | np.ndarray
    ) -> List["Future[ServedPrediction]"]:
        """Queue many rows at once."""
        return self.queue.submit_many(rows)

    def flush(self) -> None:
        """Wait until every request submitted before the call has resolved."""
        self.queue.flush()

    def predict(self, row: np.ndarray, timeout: float = 30.0) -> ServedPrediction:
        """Synchronous convenience: submit one row and wait for its answer."""
        return self.submit(row).result(timeout=timeout)

    # ------------------------------------------------------------------
    def swap(self, model_or_payload, version: int | None = None) -> int:
        """Atomically install a new model (see :meth:`AsyncServingQueue.swap_payload`).

        Accepts the same model-or-payload forms as :func:`serve`; returns
        the installed model version.
        """
        payload = resolve_serving_payload(model_or_payload)
        return self.queue.swap_payload(payload, version=version)

    @property
    def model_version(self) -> int:
        """The version of the model answering requests."""
        return self.queue.model_version

    # ------------------------------------------------------------------
    def metrics(self) -> Dict:
        """The queue's :meth:`~repro.profiling.ServingMetrics.to_dict`, plus
        ``warm_hit_ratio``.

        The warm-hit ratio counts a lookup as *warm* when it was answered
        without a circuit simulation: a state-store hit or a response-memo
        hit.  It is absent until the first lookup.
        """
        out = self.queue.metrics.to_dict()
        stats = self.queue.classifier.feature_map.engine.cache_stats()
        memo_hits = self.queue.memo_hits
        warm_hits = memo_hits + (stats.hits if stats is not None else 0)
        lookups = memo_hits + (stats.lookups if stats is not None else 0)
        if lookups:
            out["warm_hit_ratio"] = warm_hits / lookups
        return out

    @property
    def url(self) -> Optional[str]:
        """Base URL of the telemetry endpoint (``None`` without telemetry)."""
        return self.endpoint.url if self.endpoint is not None else None

    # ------------------------------------------------------------------
    def snapshot(self):
        """Persist the served states to the durable tier; returns the manifest.

        Raises :class:`ServingError` when the service has no durable tier.
        """
        if self.store is None:
            raise ServingError(
                "the service has no durable tier; serve with a ServingConfig "
                "whose snapshot_root is set"
            )
        return self.store.snapshot()

    def close(self, snapshot: bool = False) -> None:
        """Stop the endpoint and drain and stop the queue (idempotent).

        ``snapshot=True`` then persists the served states to the durable
        tier (requires a config with ``snapshot_root``).  The queue and the
        endpoint are stopped first, so a snapshot that raises leaves nothing
        running behind it.
        """
        if self._closed:
            return
        self._closed = True
        if self.endpoint is not None:
            self.endpoint.close()
        self.queue.close()
        if snapshot:
            self.snapshot()


def serve(
    model_or_payload,
    config: ServingConfig | None = None,
    *,
    telemetry: bool = False,
    **overrides,
) -> ServingHandle:
    """Stand up a traffic-ready service in one call.

    Parameters
    ----------
    model_or_payload:
        A serving payload mapping, or any object with ``serving_payload()``
        (a fitted streaming classifier, an inference engine, ...).
    config:
        Declarative :class:`~repro.config.ServingConfig`; defaults
        throughout when omitted.  Its values are fixed for the service's
        lifetime.  With ``snapshot_root`` set, the engine's state store is a
        :class:`PersistentStateStore` there, warmed up from its latest
        snapshot before the first request.
    telemetry:
        Start an HTTP endpoint (``/metrics``, ``/health``,
        ``/traces/recent``) bound to the queue.  Reachable via
        ``handle.endpoint`` / ``handle.url``.
    overrides:
        Keyword arguments forwarded to :class:`AsyncServingQueue` (e.g.
        ``memo_capacity``); they replace the config's ``max_batch`` and
        ``memoize``.
    """
    if config is None:
        config = ServingConfig()
    payload = resolve_serving_payload(model_or_payload)
    store: Optional[PersistentStateStore] = None
    report: Optional[WarmUpReport] = None
    if config.snapshot_root is not None:
        store = PersistentStateStore(config.snapshot_root)
    classifier = StreamingNystroemClassifier.from_serving_payload(payload, store=store)
    if store is not None:
        # The engine exists only now; stamp its compute-policy fingerprint
        # so snapshots are checked on every restore.
        store.fingerprint = classifier.feature_map.engine.fingerprint
        with TRACER.span("serving.warm_up") as span:
            report = store.warm_up(max_keys=config.warm_max_keys)
            if span is not None:
                span.set_attribute("loaded", report.loaded)
    queue_kwargs = dict(max_batch=config.max_batch, memoize=config.memoize)
    queue_kwargs.update(overrides)
    queue = AsyncServingQueue(classifier, **queue_kwargs)
    endpoint = None
    if telemetry:
        from ..telemetry import attach_endpoint

        endpoint = attach_endpoint(queue)
    handle = ServingHandle(queue, config, store, report, endpoint)
    # A full cyclic collection scans every long-lived object (modules, the
    # model, the queue) and stalls the serving threads for tens of ms, so
    # freeze what is alive now.  Process-wide: no object alive now, the
    # caller's included, is scanned again unless gc.unfreeze() is called.
    gc.collect()
    gc.freeze()
    return handle
