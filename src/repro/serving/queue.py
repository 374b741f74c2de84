"""Async batch-coalescing request queue over a streaming Nystrom classifier.

A traffic-facing service receives requests one at a time, but the engine is
at its best when it sweeps a whole *batch* of query states against the
landmarks' :class:`~repro.engine.StackedStateBlock` at once: the per-flush
overhead amortises over the batch.  :class:`AsyncServingQueue` sits between
the two:

* :meth:`submit` admits one raw feature row (:func:`admit_row`: its width
  and finite values) and immediately returns a
  :class:`concurrent.futures.Future`.  The admitted row's bytes are its
  response-memo key, taken once.  Only a request that finds nothing pending
  wakes the coalescer, which waits only then;
* a background coalescer thread is **work-conserving**: whenever it is idle
  and something is pending, it pops up to ``max_batch`` requests at once and
  flushes them through the classifier as one block sweep.  It never holds a batch
  back to let it fill.  Requests that arrive while a flush runs form the
  next batch, so batches grow with load and shrink to one request when the
  queue is quiet -- the dynamic batching of Clipper and Triton, with no
  timer to tune;
* a flush is scored in the queue's own process by
  :meth:`~repro.approx.StreamingNystroemClassifier.classify`, the one
  scoring path of a served row.  Its *cold* rows -- memo misses whose
  states are not in the engine's cache either -- are encoded in one
  stacked layer-MPO pass rather than one circuit simulation each
  (:mod:`repro.mps.encoding`).

Because every overlap runs the composition-invariant padded sweep and every
projection is row-wise, a request's prediction is **byte-identical** however
it was coalesced -- alone or in a full batch.  That is the contract the
metamorphic test suite pins down, and it also makes the queue
deterministic: two identical request streams produce identical outputs even
though wall-clock timing batches them differently.

The served model is **hot-swappable**: everything version-dependent
(classifier and response memo) lives in one immutable
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
the queue's own :class:`repro.profiling.ServingMetrics` (``queue.metrics``),
which :func:`repro.telemetry.bind_queue` publishes to a metrics registry.

A request whose own scoring raises fails alone.  When ``classify`` raises on
a flush, the flush is scored again by halves, down to single rows, so only
the requests whose one-row score raises get the exception; every other
request of the batch resolves byte-identical to a flush without them (the
composition invariance above), and only their answers are memoised and
counted in the metrics.

The coalescer thread is **supervised**: a raise outside a batch's scoring
(resolving a future, recording metrics) does not leave callers waiting on a
dead thread.  The queue fails every outstanding future with a
:class:`~repro.exceptions.ServingError` chained to the cause and closes
itself, so :meth:`AsyncServingQueue.submit` raises and a health check
reports it down.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, wait
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..approx import StreamingNystroemClassifier
from ..exceptions import ServingError
from ..profiling import ServingMetrics

__all__ = ["ServedPrediction", "AsyncServingQueue", "admit_row"]


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
    if np.count_nonzero(np.isfinite(row)) != row.size:
        raise ServingError("row has a NaN or infinite feature value")
    return row


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


@dataclass(slots=True)
class _Pending:
    row: np.ndarray
    #: The admitted row's bytes: its response-memo key, computed once.
    key: bytes
    future: "Future[ServedPrediction]"
    enqueued_at: float


@dataclass(frozen=True)
class _ModelSlot:
    """One served model version: classifier and response memo.

    Everything whose validity is tied to the model version lives here so a
    flush can capture a single reference and stay internally consistent even
    if a swap lands mid-score.  The memo is per-slot by construction --
    answers memoised under one model must never be served under another.
    """

    classifier: StreamingNystroemClassifier
    version: int
    memo: "OrderedDict[bytes, Tuple[int, float]] | None"


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
        ``0`` or ``1``; any other value raises :class:`ServingError`.  Every
        flush is scored in-process; the keyword remains only so callers
        that pass it keep working.
    memoize:
        Memoise decision values by raw row bytes (LRU, ``memo_capacity``
        entries).  Scoring is a pure function of the row, so a repeated hot
        query is answered from the memo without touching the engine -- with
        *byte-identical* output, because the memo stores exactly what the
        compute path produced.  Disable for strictly-unique traffic.
    memo_capacity:
        LRU entry budget of the response memo.
    """

    def __init__(
        self,
        classifier: StreamingNystroemClassifier,
        max_batch: int = 32,
        workers: int = 0,
        memoize: bool = True,
        memo_capacity: int = 4096,
    ) -> None:
        if max_batch < 1:
            raise ServingError(f"max_batch must be >= 1, got {max_batch}")
        if workers not in (0, 1):
            raise ServingError(f"workers must be 0 or 1, got {workers}")
        if memo_capacity < 1:
            raise ServingError(f"memo_capacity must be >= 1, got {memo_capacity}")
        self.max_batch = int(max_batch)
        self.metrics = ServingMetrics()
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
        )

        self._cond = threading.Condition()
        self._pending: List[_Pending] = []
        self._in_flight: List[_Pending] = []
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
        """Requests accepted but not yet flushed (a list's length: no lock)."""
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
    def swap_payload(self, payload: Dict, version: int | None = None) -> int:
        """Atomically install a new served model from a serving payload.

        The replacement classifier is rebuilt around the **current engine's
        state store** (persistent or in-memory) and **backend**, so warm
        cache entries and durable snapshots survive the swap and the
        backend's counters keep counting across it.  A swap may only change
        the model parts (landmarks, normalisation, linear model, scaler),
        never the simulation config, which the shared backend checks.  See
        :meth:`swap_model` for the swap semantics.
        """
        engine = self._slot.classifier.feature_map.engine
        classifier = StreamingNystroemClassifier.from_serving_payload(
            payload, store=engine.store, backend=engine.backend
        )
        return self.swap_model(classifier, version=version)

    def swap_model(
        self, classifier: StreamingNystroemClassifier, version: int | None = None
    ) -> int:
        """Atomically swap the served model; returns the new version.

        Serving is never paused: the new slot (classifier and a fresh memo)
        is installed by a single reference assignment under the queue lock.
        Flushes that captured the old slot complete against the old model;
        every later flush scores against the new one and stamps the new
        ``model_version`` on its results.

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
        with self._cond:
            if self._closed:
                raise ServingError("serving queue is closed")
            active = self._slot.version
            new_version = active + 1 if version is None else int(version)
            if new_version <= active:
                raise ServingError(
                    f"swap version must exceed the active version "
                    f"{active}, got {new_version}"
                )
            self._slot = _ModelSlot(
                classifier,
                version=new_version,
                memo=OrderedDict() if self.memoize else None,
            )
            self.swap_count += 1
        return new_version

    # ------------------------------------------------------------------
    def submit(self, row: np.ndarray) -> "Future[ServedPrediction]":
        """Enqueue one raw feature row; returns a future with the result.

        The row is validated here (:func:`admit_row`) so malformed traffic
        is rejected at ingestion and never poisons a coalesced batch.  Only
        a request that finds nothing pending wakes the coalescer: it waits
        only while nothing is pending.
        """
        row = admit_row(row, self._expected_features)
        key = row.tobytes()
        future: "Future[ServedPrediction]" = Future()
        now = time.perf_counter()
        with self._cond:
            if self._closed:
                raise ServingError("serving queue is closed")
            self._pending.append(_Pending(row, key, future, now))
            depth = len(self._pending)
            if depth == 1:
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
            waiting = [p.future for p in self._pending + self._in_flight]
        wait(waiting)

    def close(self) -> None:
        """Drain pending requests and stop the coalescer.

        Idempotent; returns also when the coalescer thread has failed.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._thread.join()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        try:
            while True:
                popped = self._collect_batch()
                if popped is None:
                    return
                batch, slot = popped
                if batch:
                    self._flush_batch(batch, slot, time.perf_counter())
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
            in_flight = [p.future for p in self._in_flight if not p.future.done()]
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

    def _collect_batch(self) -> Optional[Tuple[List[_Pending], _ModelSlot]]:
        """Pop the next batch and the slot scoring it; ``None`` means shut down.

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
            popped = self._pending[: self.max_batch]
            del self._pending[: self.max_batch]
            self._in_flight = popped
            # Capture the active model slot exactly once: classifier and
            # memo stay consistent for this whole flush even if a swap
            # installs a new slot mid-score.
            slot = self._slot
        # A request its caller cancelled while it waited is dropped here: it
        # is never scored.  The survivors' futures can no longer be
        # cancelled, so resolving them cannot fail.
        return [p for p in popped if p.future.set_running_or_notify_cancel()], slot

    def _flush_batch(
        self, batch: List[_Pending], slot: _ModelSlot, start: float
    ) -> None:
        outputs = self._score_batch(batch, slot)
        now = time.perf_counter()
        size, version = len(batch), slot.version
        latencies = []
        for p, output in zip(batch, outputs):
            if isinstance(output, Exception):
                p.future.set_exception(output)
                continue
            latency = now - p.enqueued_at
            latencies.append(latency)
            prediction, decision = output
            p.future.set_result(
                ServedPrediction(prediction, decision, latency, size, version)
            )
        if latencies:
            self.metrics.record_batch(latencies, now - start, now)

    def _score_batch(
        self, batch: List[_Pending], slot: _ModelSlot
    ) -> List["Tuple[int, float] | Exception"]:
        """(prediction, decision value) per request, memo-aware; or the
        exception the request's own one-row score raised.

        Scoring is a pure function of the raw row *and the model slot*, so
        memo hits return the byte-exact output a fresh compute under the
        same slot would; only the memo-miss rows go through the classifier
        (one coalesced block sweep, see :func:`_classify`).  The memo lives
        on the slot, never the queue: answers memoised under one model
        version are unreachable after a swap.  A failed row is not memoised.
        """
        memo = slot.memo
        outputs: List = [None] * len(batch)
        # The rows to score, by memo key (by position without a memo): with
        # a memo, a row repeated inside one batch is scored once.
        misses: Dict[object, List[int]] = {}
        for i, p in enumerate(batch):
            hit = memo.get(p.key) if memo is not None else None
            if hit is None:
                misses.setdefault(p.key if memo is not None else i, []).append(i)
            else:
                memo.move_to_end(p.key)
                self.memo_hits += 1
                outputs[i] = hit
        if misses:
            scored = _classify(
                slot.classifier,
                np.array([batch[indices[0]].row for indices in misses.values()]),
            )
            for (key, indices), output in zip(misses.items(), scored):
                for i in indices:
                    outputs[i] = output
                if memo is not None and not isinstance(output, Exception):
                    memo[key] = output
            while memo is not None and len(memo) > self.memo_capacity:
                memo.popitem(last=False)
        return outputs


def _classify(
    classifier: StreamingNystroemClassifier, rows: np.ndarray
) -> List["Tuple[int, float] | Exception"]:
    """Score ``rows`` as one block; on a raise, score each half on its own.

    A row's output does not depend on the rows scored with it, so the halves
    give the bytes the whole block would have.  The recursion ends at single
    rows: a row whose own score raises gets that exception as its output.
    """
    try:
        result = classifier.classify(rows)
    except Exception as exc:
        if len(rows) == 1:
            return [exc]
        half = len(rows) // 2
        return _classify(classifier, rows[:half]) + _classify(classifier, rows[half:])
    return list(zip(result.predictions.tolist(), result.decision_values.tolist()))
