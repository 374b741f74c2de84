"""Async batch-coalescing request queue over a streaming Nystrom classifier.

A traffic-facing service receives requests one at a time, but the engine is
at its best when it evaluates one :class:`~repro.engine.plan.KernelRowPlan`
per *batch*: the per-plan overhead amortises and -- with worker processes --
the row encodes fan out.  :class:`AsyncServingQueue` sits between the two:

* :meth:`submit` accepts one raw feature row and immediately returns a
  :class:`concurrent.futures.Future`;
* a background coalescer thread is **work-conserving**: whenever it is idle
  and something is pending, it pops up to ``max_batch`` requests at once and
  flushes them through the classifier as one plan.  It never holds a batch
  back to let it fill.  Requests that arrive while a flush runs form the
  next batch, so batches grow with load and shrink to one request when the
  queue is quiet -- the dynamic batching of Clipper and Triton, with no
  timer to tune;
* with ``workers >= 2`` the flush fans the batch's row blocks out over a
  persistent process pool whose workers attached the serialised landmark
  store once at start-up (:mod:`repro.serving.store`); the parent assembles
  the kernel rows and scores them through the classifier's row-wise path;
* a flush's *cold* rows -- memo misses whose states are not in the engine's
  cache either -- are encoded through one stacked gate sweep rather than one
  circuit simulation each, closing the last per-point cost of cold traffic
  (:mod:`repro.mps.encoding`).

Because every overlap runs the composition-invariant padded sweep and every
projection is row-wise, a request's prediction is **byte-identical** however
it was coalesced -- alone, in a full batch, in-process or on a worker.  That
is the contract the metamorphic test suite pins down, and it also makes the
queue deterministic: two identical request streams produce identical outputs
even though wall-clock timing batches them differently.

The served model is **hot-swappable**: everything version-dependent
(classifier, response memo, worker pool) lives in one immutable
:class:`_ModelSlot` that a flush reads exactly once, and
:meth:`AsyncServingQueue.swap_payload` installs a new slot atomically under
the queue lock.  Serving is never paused -- requests keep coalescing during
a swap, in-flight flushes complete against the slot they captured, and every
:class:`ServedPrediction` records the ``model_version`` that produced it, so
a request stream split across a swap is exactly the concatenation of
old-model and new-model answers at the recorded version (the swap
metamorphic suite pins this).  The drift controller's shadow-fit -> swap
loop (:mod:`repro.approx.drift`) is the primary caller.

Per-request latency, batch sizes, queue depth and throughput are recorded in
a :class:`repro.profiling.ServingMetrics`.

The coalescer thread is **supervised**: a raise outside a batch's scoring
(resolving a future, recording metrics) does not leave callers waiting on a
dead thread.  The queue fails every outstanding future with a
:class:`~repro.exceptions.ServingError` chained to the cause and closes
itself, so :meth:`AsyncServingQueue.submit` raises, a health check reports
it down and a :class:`~repro.serving.ReplicaRouter` routes around it.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..approx import StreamingNystroemClassifier
from ..exceptions import ServingError
from ..parallel.tiling import partition_indices
from ..profiling import ServingMetrics
from ..telemetry.tracing import TRACER, Span
from .store import attach_shared_store, shared_store_kernel_rows

__all__ = ["ServedPrediction", "QueueTuning", "AsyncServingQueue", "admit_row"]


def admit_row(row: np.ndarray, expected_features: int) -> np.ndarray:
    """Flatten one raw row; a wrong width or a NaN/inf raises :class:`ServingError`.

    Rejecting at admission keeps a bad row out of -- and from failing -- a
    coalesced batch of valid rows.
    """
    row = np.asarray(row, dtype=float).ravel()
    if row.size != expected_features:
        raise ServingError(
            f"row has {row.size} features but the service expects {expected_features}"
        )
    if not np.isfinite(row).all():
        raise ServingError("row has a NaN or infinite feature value")
    return row


@dataclass(frozen=True)
class QueueTuning:
    """One immutable snapshot of the queue's coalescing knob.

    The coalescer reads exactly one snapshot per flush decision (the moment
    it pops a batch), the same discipline a flush uses for its
    :class:`_ModelSlot`: a knob change installed while a batch is scored
    takes effect at the *next* flush decision, never inside the current one.
    ``version`` is monotone -- every :meth:`AsyncServingQueue.apply_tuning`
    bumps it -- which lets callers (and the metamorphic suite) correlate
    results with the knob generation that coalesced them.
    """

    max_batch: int
    version: int = 0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ServingError(f"max_batch must be >= 1, got {self.max_batch}")


@dataclass(frozen=True)
class ServedPrediction:
    """Result of one served request plus its queueing accounting.

    ``model_version`` identifies the model slot that scored the request --
    0 for the queue's construction-time model, incremented by every
    :meth:`AsyncServingQueue.swap_payload`.  A caller correlating answers
    with a concurrent swap partitions the stream by this field.
    """

    prediction: int
    decision_value: float
    latency_s: float
    batch_size: int
    model_version: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ServingError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class _Pending:
    row: np.ndarray
    future: "Future[ServedPrediction]"
    enqueued_at: float
    #: Root span of this request's trace, minted at submit() when the global
    #: tracer is enabled; ``None`` otherwise (the zero-cost default).
    span: Optional[Span] = None


class _ModelSlot:
    """One served model version: classifier, memo, worker pool, refcount.

    Everything whose validity is tied to the model version lives here so a
    flush can capture a single reference and stay internally consistent even
    if a swap lands mid-score.  The memo is per-slot by construction --
    answers memoised under one model must never be served under another.
    ``active_flushes`` counts flushes currently scoring against this slot;
    the swap path waits for it to reach zero before tearing down the slot's
    worker pool (in-flight flushes complete against the old payload).
    """

    __slots__ = ("classifier", "version", "memo", "pool", "active_flushes")

    def __init__(
        self,
        classifier: StreamingNystroemClassifier,
        version: int,
        memo: "OrderedDict[bytes, Tuple[int, float]] | None",
        pool: Optional[ProcessPoolExecutor],
    ) -> None:
        self.classifier = classifier
        self.version = version
        self.memo = memo
        self.pool = pool
        self.active_flushes = 0


class AsyncServingQueue:
    """Batch-coalescing front end for :class:`StreamingNystroemClassifier`.

    Parameters
    ----------
    classifier:
        The fitted streaming classifier that scores flushed batches.
    max_batch:
        Most requests one flush scores.  The coalescer flushes whatever is
        pending, up to this many, the moment it is idle; it never waits for
        a batch to fill.
    workers:
        ``0`` or ``1`` scores batches in-process.  ``>= 2`` starts a
        persistent process pool; each worker attaches the classifier's
        serialised landmark store once, and every flush fans its row blocks
        out over the pool.
    memoize:
        Memoise decision values by raw row bytes (LRU, ``memo_capacity``
        entries).  Scoring is a pure function of the row, so a repeated hot
        query is answered from the memo without touching the engine -- with
        *byte-identical* output, because the memo stores exactly what the
        compute path produced.  Disable for strictly-unique traffic.
    memo_capacity:
        LRU entry budget of the response memo.
    metrics:
        Externally owned :class:`ServingMetrics` (e.g. shared across queues);
        a fresh one is created by default.
    encode_batch_size:
        Circuits per stacked encoding sweep of the served engine; ``None``
        keeps the engine's own setting.  Re-applied to every model a swap
        installs.
    """

    def __init__(
        self,
        classifier: StreamingNystroemClassifier,
        max_batch: int = 32,
        workers: int = 0,
        memoize: bool = True,
        memo_capacity: int = 4096,
        metrics: ServingMetrics | None = None,
        encode_batch_size: int | None = None,
    ) -> None:
        if workers < 0:
            raise ServingError(f"workers must be >= 0, got {workers}")
        if memo_capacity < 1:
            raise ServingError(f"memo_capacity must be >= 1, got {memo_capacity}")
        if encode_batch_size is not None and encode_batch_size < 1:
            raise ServingError(
                f"encode_batch_size must be >= 1, got {encode_batch_size}"
            )
        # The knob lives in one immutable versioned snapshot (validated
        # there); apply_tuning() installs replacements at runtime.
        self._tuning = QueueTuning(max_batch=int(max_batch), version=0)
        self.knob_adjustments = 0
        self._encode_batch_size = (
            None if encode_batch_size is None else int(encode_batch_size)
        )
        self.workers = int(workers)
        self.metrics = metrics if metrics is not None else ServingMetrics()
        self.memoize = bool(memoize)
        self.memo_capacity = int(memo_capacity)
        self.memo_hits = 0
        self.swap_count = 0
        self._expected_features = (
            classifier.feature_map.engine.ansatz.num_features
        )
        self._slot = _ModelSlot(
            classifier,
            version=0,
            memo=OrderedDict() if self.memoize else None,
            pool=self._build_pool(classifier, None),
        )
        if self._encode_batch_size is not None:
            classifier.feature_map.engine.set_encode_batch_size(
                self._encode_batch_size
            )

        self._cond = threading.Condition()
        self._pending: List[_Pending] = []
        self._in_flight: List["Future[ServedPrediction]"] = []
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="serving-queue", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    def __enter__(self) -> "AsyncServingQueue":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def pending(self) -> int:
        """Requests accepted but not yet flushed."""
        with self._cond:
            return len(self._pending)

    @property
    def closed(self) -> bool:
        """Whether the queue has stopped accepting requests.

        True after :meth:`close`, and after the coalescer thread failed.
        """
        with self._cond:
            return self._closed

    @property
    def classifier(self) -> StreamingNystroemClassifier:
        """The currently active classifier (the latest installed slot's)."""
        return self._slot.classifier

    @property
    def model_version(self) -> int:
        """Version of the currently active model slot (0 at construction)."""
        return self._slot.version

    # ------------------------------------------------------------------
    @property
    def tuning(self) -> QueueTuning:
        """The currently installed knob snapshot."""
        return self._tuning

    @property
    def max_batch(self) -> int:
        """Batch cap of the current knob snapshot."""
        return self._tuning.max_batch

    @property
    def encode_batch_size(self) -> int:
        """Effective stacked-encode chunk size of the active model's engine."""
        return self._slot.classifier.feature_map.engine.encode_batch_size

    def apply_tuning(
        self,
        max_batch: int | None = None,
        encode_batch_size: int | None = None,
    ) -> QueueTuning:
        """Install a new versioned knob snapshot; unset knobs keep their value.

        The replacement is fully validated *before* anything mutates, then
        installed as a single reference assignment under the queue lock --
        the same atomicity discipline as a model swap.  The coalescer picks
        it up at its next flush decision; a batch already popped completes
        as it was popped.  Predictions are unaffected either way (coalescing
        and encode chunking are bit-identical by the engine's contract);
        only latency and throughput move.

        ``encode_batch_size`` applies to the active model's engine and is
        re-applied to every future model slot a swap installs.  Returns the
        installed snapshot.
        """
        if encode_batch_size is not None and int(encode_batch_size) < 1:
            raise ServingError(
                f"encode_batch_size must be >= 1, got {encode_batch_size}"
            )
        with self._cond:
            if self._closed:
                raise ServingError("serving queue is closed")
            current = self._tuning
            replacement = QueueTuning(
                max_batch=(
                    current.max_batch if max_batch is None else int(max_batch)
                ),
                version=current.version + 1,
            )
            self._tuning = replacement
            if encode_batch_size is not None:
                self._encode_batch_size = int(encode_batch_size)
                self._slot.classifier.feature_map.engine.set_encode_batch_size(
                    self._encode_batch_size
                )
            self.knob_adjustments += 1
        return replacement

    def _build_pool(
        self, classifier: StreamingNystroemClassifier, payload: Optional[Dict]
    ) -> Optional[ProcessPoolExecutor]:
        """A fresh worker pool attached to this model, or ``None`` in-process."""
        if self.workers < 2:
            return None
        if payload is None:
            payload = classifier.serving_payload()
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=attach_shared_store,
            initargs=(payload,),
        )

    # ------------------------------------------------------------------
    def swap_payload(self, payload: Dict, version: int | None = None) -> int:
        """Atomically install a new served model from a serving payload.

        The replacement classifier is rebuilt around the **current engine's
        state store** (persistent or in-memory), so warm cache entries and
        durable snapshots survive the swap -- the engine fingerprint is
        unchanged because a swap may only change the model parts (landmarks,
        normalisation, linear model, scaler), never the ansatz or simulation
        config.  See :meth:`swap_model` for the swap semantics.
        """
        store = self._slot.classifier.feature_map.engine.store
        classifier = StreamingNystroemClassifier.from_serving_payload(
            payload, buffer_size=self.max_batch, store=store
        )
        return self.swap_model(classifier, version=version, _payload=payload)

    def swap_model(
        self,
        classifier: StreamingNystroemClassifier,
        version: int | None = None,
        _payload: Optional[Dict] = None,
    ) -> int:
        """Atomically swap the served model; returns the new version.

        Serving is never paused: the new slot (classifier, fresh memo, and
        -- with ``workers >= 2`` -- a fresh worker pool attached to the new
        payload) is fully constructed *before* the installation, which is a
        single reference assignment under the queue lock.  Flushes that
        captured the old slot complete against the old payload; every later
        flush scores against the new one and stamps the new
        ``model_version`` on its results.  The old pool is torn down only
        after its last in-flight flush finishes.

        ``version`` defaults to the current version + 1 and must be strictly
        monotone -- a stale controller replaying an old swap is rejected
        instead of silently rolling the model back.
        """
        if not classifier.feature_map.is_fitted:
            raise ServingError("swap requires a fitted replacement classifier")
        expected = classifier.feature_map.engine.ansatz.num_features
        if expected != self._expected_features:
            raise ServingError(
                f"replacement model expects {expected} features but the "
                f"queue serves {self._expected_features}"
            )
        if self._encode_batch_size is not None:
            # A live encode-chunk override survives model swaps: the fresh
            # slot's engine inherits it before serving its first flush.
            classifier.feature_map.engine.set_encode_batch_size(
                self._encode_batch_size
            )
        new_pool = self._build_pool(classifier, _payload)
        with TRACER.span("serving.swap") as span:
            with self._cond:
                if self._closed:
                    raise ServingError("serving queue is closed")
                old = self._slot
                new_version = old.version + 1 if version is None else int(version)
                if new_version <= old.version:
                    raise ServingError(
                        f"swap version must exceed the active version "
                        f"{old.version}, got {new_version}"
                    )
                self._slot = _ModelSlot(
                    classifier,
                    version=new_version,
                    memo=OrderedDict() if self.memoize else None,
                    pool=new_pool,
                )
                self.swap_count += 1
                # In-flight flushes complete against the old payload; wait
                # them out before the old pool (their compute substrate) is
                # shut down.  New requests already score on the new slot.
                while old.active_flushes > 0:
                    self._cond.wait()
            if span is not None:
                span.set_attribute("version", new_version)
        if old.pool is not None:
            old.pool.shutdown(wait=True)
        return new_version

    # ------------------------------------------------------------------
    def submit(self, row: np.ndarray) -> "Future[ServedPrediction]":
        """Enqueue one raw feature row; returns a future with the result.

        The row is validated here (:func:`admit_row`) so malformed traffic
        is rejected at ingestion and never poisons a coalesced batch.
        """
        row = admit_row(row, self._expected_features)
        future: "Future[ServedPrediction]" = Future()
        # Mint the request's trace root here (None when tracing is off):
        # the coalescer thread later hangs the wait span and the flush's
        # compute spans off it, giving one tree per request.
        span = TRACER.mint_request("serving.request")
        now = time.perf_counter()
        with self._cond:
            if self._closed:
                raise ServingError("serving queue is closed")
            self._pending.append(
                _Pending(row=row, future=future, enqueued_at=now, span=span)
            )
            depth = len(self._pending)
            self._cond.notify_all()
        self.metrics.record_enqueue(depth, now)
        return future

    def submit_many(
        self, rows: Sequence[np.ndarray] | np.ndarray
    ) -> List["Future[ServedPrediction]"]:
        """Enqueue many rows at once (bulk scoring / benchmark driver)."""
        return [self.submit(row) for row in np.asarray(rows, dtype=float)]

    def flush(self) -> None:
        """Wait until every request submitted before the call has resolved.

        The coalescer never holds work back, so there is nothing to force:
        this waits on the still-pending requests and on the batch being
        scored.  A result and an exception both count as resolved.
        """
        with self._cond:
            waiting = [p.future for p in self._pending] + self._in_flight
        wait(waiting)

    def close(self) -> None:
        """Drain pending requests, stop the coalescer and the worker pool.

        Idempotent; returns also when the coalescer thread has failed.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._thread.join()
        with self._cond:
            pool, self._slot.pool = self._slot.pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    def _run(self) -> None:
        try:
            while True:
                batch = self._collect_batch()
                if batch is None:
                    return
                if batch:
                    self._process(batch)
        except BaseException as exc:
            # The thread ends either way; first make sure no caller hangs on
            # it, then let threading.excepthook report the traceback.
            self._fail_outstanding(exc)
            raise

    def _fail_outstanding(self, cause: BaseException) -> None:
        """Close the queue and fail every unresolved future after ``cause``.

        Each in-flight and pending future gets its own :class:`ServingError`
        chained to ``cause``; a pending request its caller cancelled stays
        cancelled.
        """
        with self._cond:
            self._closed = True
            in_flight = [f for f in self._in_flight if not f.done()]
            pending = [p.future for p in self._pending]
            self._pending = []
            self._cond.notify_all()
        pending = [f for f in pending if f.set_running_or_notify_cancel()]
        for future in in_flight + pending:
            error = ServingError(
                f"the serving queue's coalescer failed ({cause!r}); "
                "the queue is closed"
            )
            error.__cause__ = cause
            future.set_exception(error)

    def _collect_batch(self) -> Optional[List[_Pending]]:
        """Pop the next batch once anything is pending; ``None`` means shut down.

        Work-conserving: the coalescer only gets here between flushes, and
        it takes up to ``max_batch`` pending requests at once instead of
        waiting for more.  Requests that arrive while that batch is scored
        are popped together as the next one.
        """
        with self._cond:
            while not self._pending:
                if self._closed:
                    return None
                self._cond.wait()
            # One knob snapshot per flush decision, read exactly here: a
            # concurrent apply_tuning() takes effect at the next decision.
            max_batch = self._tuning.max_batch
            popped = self._pending[:max_batch]
            del self._pending[:max_batch]
            # A request its caller cancelled while it waited is dropped here:
            # it is never scored and never waited on.  The survivors' futures
            # can no longer be cancelled, so resolving them cannot fail.
            batch = [p for p in popped if p.future.set_running_or_notify_cancel()]
            self._in_flight = [p.future for p in batch]
            return batch

    def _process(self, batch: List[_Pending]) -> None:
        start = time.perf_counter()
        # Capture the active model slot exactly once: classifier, memo and
        # pool stay mutually consistent for this whole flush even if a swap
        # installs a new slot mid-score, and the slot's refcount keeps its
        # pool alive until the flush completes.
        with self._cond:
            slot = self._slot
            slot.active_flushes += 1
        try:
            self._flush_batch(batch, slot, start)
        finally:
            # Released even if the flush raised, so a swap waiting on this
            # slot's in-flight flushes never waits forever.
            with self._cond:
                slot.active_flushes -= 1
                self._cond.notify_all()

    def _flush_batch(
        self, batch: List[_Pending], slot: _ModelSlot, start: float
    ) -> None:
        flush_span: Optional[Span] = None
        if TRACER.enabled:
            roots = [p.span for p in batch if p.span is not None]
            if roots:
                # One flush span, child of the oldest request's trace and
                # *linked* to every other coalesced request's root -- the
                # standard batch-consumer span topology.  Each request also
                # gets its queue-wait recorded retroactively.
                flush_span = TRACER.start_span(
                    "serving.flush", roots[0], start_time=start
                )
                flush_span.set_attribute("batch_size", len(batch))
                for root in roots[1:]:
                    flush_span.add_link(root)
                for p in batch:
                    if p.span is not None:
                        TRACER.record_span(
                            "serving.wait", p.span, p.enqueued_at, start
                        )
        try:
            with TRACER.use_span(flush_span):
                with TRACER.span("serving.score") as score_span:
                    outputs = self._score_batch(batch, slot)
                    if score_span is not None:
                        score_span.set_attribute("batch_size", len(batch))
        except Exception as exc:  # propagate to every waiting caller
            if flush_span is not None:
                flush_span.set_attribute("error", repr(exc))
                flush_span.end()
            for p in batch:
                if p.span is not None:
                    p.span.set_attribute("error", repr(exc))
                    p.span.end()
                p.future.set_exception(exc)
            return
        now = time.perf_counter()
        latencies = [now - p.enqueued_at for p in batch]
        if flush_span is not None:
            flush_span.end(now)
        for i, p in enumerate(batch):
            prediction, decision = outputs[i]
            if p.span is not None:
                p.span.set_attribute("batch_size", len(batch))
                p.span.end(now)
            p.future.set_result(
                ServedPrediction(
                    prediction=prediction,
                    decision_value=decision,
                    latency_s=latencies[i],
                    batch_size=len(batch),
                    model_version=slot.version,
                )
            )
        self.metrics.record_batch(latencies, now - start, now)

    def _score_batch(
        self, batch: List[_Pending], slot: _ModelSlot
    ) -> List[Tuple[int, float]]:
        """(prediction, decision value) per request, memo-aware.

        Scoring is a pure function of the raw row *and the model slot*, so
        memo hits return the byte-exact output a fresh compute under the
        same slot would; only the memo-miss rows go through the classifier
        (one coalesced plan, possibly fanned out over the slot's worker
        pool).  The memo lives on the slot, never the queue: answers
        memoised under one model version are unreachable after a swap.
        """
        if slot.memo is None:
            result = self._classify_rows(np.vstack([p.row for p in batch]), slot)
            return [
                (int(result.predictions[i]), float(result.decision_values[i]))
                for i in range(len(batch))
            ]
        keys = [p.row.tobytes() for p in batch]
        outputs: List[Optional[Tuple[int, float]]] = [None] * len(batch)
        miss_indices: List[int] = []
        miss_keys: Dict[bytes, int] = {}
        for i, key in enumerate(keys):
            hit = slot.memo.get(key)
            if hit is not None:
                slot.memo.move_to_end(key)
                self.memo_hits += 1
                outputs[i] = hit
            elif key not in miss_keys:
                # Duplicates inside one batch are computed once.
                miss_keys[key] = len(miss_indices)
                miss_indices.append(i)
        if miss_indices:
            result = self._classify_rows(
                np.vstack([batch[i].row for i in miss_indices]), slot
            )
            fresh = {
                key: (
                    int(result.predictions[local]),
                    float(result.decision_values[local]),
                )
                for key, local in miss_keys.items()
            }
            for key, value in fresh.items():
                slot.memo[key] = value
            while len(slot.memo) > self.memo_capacity:
                slot.memo.popitem(last=False)
            for i, key in enumerate(keys):
                if outputs[i] is None:
                    outputs[i] = fresh[key]
        return [out for out in outputs if out is not None]

    def _classify_rows(self, rows: np.ndarray, slot: _ModelSlot):
        # Either path encodes the batch's cache-miss rows in one stacked
        # sweep (in-process via the classifier's engine; distributed via each
        # worker's attached-store engine on its row block).
        if slot.pool is not None and rows.shape[0] >= 2:
            return self._classify_distributed(rows, slot)
        return slot.classifier.classify(rows)

    def _classify_distributed(self, rows: np.ndarray, slot: _ModelSlot):
        """Fan one batch's kernel rows out over the slot's worker pool.

        Scaling happens once here (element-wise, hence batch-invariant), the
        workers compute their block's landmark overlaps against the attached
        store, and the assembled rows are scored through the classifier's
        row-wise path -- bit-identical to an in-process ``classify``.
        """
        assert slot.pool is not None
        Xs = slot.classifier.scale(rows)
        num_blocks = min(self.workers, Xs.shape[0])
        blocks = partition_indices(Xs.shape[0], num_blocks)
        futures = [
            slot.pool.submit(shared_store_kernel_rows, Xs[block]) for block in blocks
        ]
        kernel_rows = np.vstack([f.result() for f in futures])
        return slot.classifier.classify_kernel_rows(kernel_rows)
