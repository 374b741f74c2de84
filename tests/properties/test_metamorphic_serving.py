"""Metamorphic relations of the serving layer.

Pointwise oracles are weak for approximate kernels: there is no closed-form
"right answer" for a Nystrom decision value.  Metamorphic relations sidestep
that by asserting how outputs must *relate* across transformed inputs
(Ba et al. 2025): coalescing must not change results, batch order must not
matter, duplicates must agree, and more spectral rank can only help
reconstruction.  All equivalences here are exact (``np.array_equal``), which
is the contract the engine's grouping-invariant batched sweep provides.

Relation 6 pins the work-conserving coalescer.  Following Metamorphic
Coverage (Ba, Jiang & Rigger), each of its cases names the branch of the
queue's batch collection it reaches.  Relation 7 pins fault containment:
a request whose own score raises fails alone.
"""

import threading

import numpy as np
import pytest

from repro.approx import NystroemConfig, NystroemFeatureMap, StreamingNystroemClassifier
from repro.config import AnsatzConfig
from repro.core import QuantumKernelInferenceEngine
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like
from repro.engine import KernelEngine, StackedStateBlock


ANSATZ = AnsatzConfig(num_features=4, interaction_distance=1, layers=1, gamma=0.6)


@pytest.fixture(scope="module")
def served_engine():
    """A small fitted Nystrom-backed inference engine."""
    data = balanced_subsample(
        generate_elliptic_like(DatasetSpec(num_samples=400, num_features=4, seed=11)),
        28,
        seed=3,
    )
    engine = QuantumKernelInferenceEngine(
        ANSATZ, approximation=NystroemConfig(num_landmarks=8, seed=0)
    )
    engine.fit(data.features, data.labels)
    return engine


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(77)
    return rng.normal(size=(24, 4))


# ----------------------------------------------------------------------
# Relation 1: coalesced flush == one-at-a-time classification.
# ----------------------------------------------------------------------
def test_batched_equals_sequential_classify(served_engine, queries):
    clf = served_engine.streaming_classifier()
    batched = clf.classify(queries)
    single_decisions = np.concatenate(
        [clf.classify(queries[i : i + 1]).decision_values for i in range(len(queries))]
    )
    single_rows = np.vstack(
        [clf.classify(queries[i : i + 1]).kernel_rows for i in range(len(queries))]
    )
    assert np.array_equal(batched.decision_values, single_decisions)
    assert np.array_equal(batched.kernel_rows, single_rows)


def test_queue_equals_sequential_classify(served_engine, queries, coalescer_gate):
    clf = served_engine.streaming_classifier()
    reference = clf.classify(queries)
    with served_engine.serving_queue(max_batch=7) as queue:
        coalescer_gate.stall(queue)
        futures = queue.submit_many(queries)
        coalescer_gate.release()
        results = [f.result(timeout=60) for f in futures]
    decisions = np.array([r.decision_value for r in results])
    predictions = np.array([r.prediction for r in results])
    assert np.array_equal(decisions, reference.decision_values)
    assert np.array_equal(predictions, reference.predictions)
    # The queue really did coalesce (some batch larger than one).
    assert max(r.batch_size for r in results) > 1


def test_queue_memo_returns_byte_identical_repeats(served_engine, queries):
    clf = served_engine.streaming_classifier()
    reference = clf.classify(queries)
    repeated = np.vstack([queries, queries[::-1]])
    with served_engine.serving_queue(max_batch=16) as queue:
        results = [f.result(timeout=60) for f in queue.submit_many(repeated)]
    decisions = np.array([r.decision_value for r in results])
    assert np.array_equal(decisions[: len(queries)], reference.decision_values)
    assert np.array_equal(decisions[len(queries) :], reference.decision_values[::-1])
    assert queue.memo_hits > 0


# ----------------------------------------------------------------------
# Relation 2: permutation invariance of the batch order.
# ----------------------------------------------------------------------
def test_permutation_invariance(served_engine, queries):
    clf = served_engine.streaming_classifier()
    reference = clf.classify(queries)
    rng = np.random.default_rng(5)
    for _ in range(3):
        perm = rng.permutation(len(queries))
        permuted = clf.classify(queries[perm])
        assert np.array_equal(permuted.decision_values, reference.decision_values[perm])
        assert np.array_equal(permuted.kernel_rows, reference.kernel_rows[perm])


# ----------------------------------------------------------------------
# Relation 3: duplicate inputs in one batch receive identical outputs.
# ----------------------------------------------------------------------
def test_duplicate_input_consistency(served_engine, queries):
    clf = served_engine.streaming_classifier()
    batch = np.vstack([queries[:6], queries[:6], queries[3:4]])
    result = clf.classify(batch)
    assert np.array_equal(result.decision_values[:6], result.decision_values[6:12])
    assert result.decision_values[12] == result.decision_values[3]
    single = clf.classify(queries[3:4])
    assert single.decision_values[0] == result.decision_values[3]


# ----------------------------------------------------------------------
# Relation 4: the block sweep is an exact rewrite of the generic plan path.
# ----------------------------------------------------------------------
def test_block_sweep_matches_plan_path(served_engine, queries):
    engine = served_engine.engine
    feature_map = served_engine._feature_map
    assert feature_map is not None
    states = feature_map.landmark_states_
    Xs = served_engine._scaler.transform(queries)
    with_block = engine.kernel_rows(
        Xs, states, block=StackedStateBlock(states)
    ).matrix
    without_block = engine.kernel_rows(Xs, states).matrix
    assert np.array_equal(with_block, without_block)


# ----------------------------------------------------------------------
# Relation 6: the coalescer is work-conserving.
# ----------------------------------------------------------------------
def test_lone_request_on_idle_queue_is_served_alone(served_engine, queries):
    """Reaches the pop of an idle queue: nothing else is pending, so the
    coalescer flushes the request at once instead of waiting for company."""
    reference = served_engine.streaming_classifier().classify(queries[:5])
    with served_engine.serving_queue(max_batch=64) as queue:
        results = [queue.submit(row).result(timeout=30) for row in queries[:5]]
    assert [r.batch_size for r in results] == [1] * 5
    decisions = np.array([r.decision_value for r in results])
    assert decisions.tobytes() == reference.decision_values.tobytes()


@pytest.mark.parametrize("k,max_batch", [(1, 4), (3, 8), (8, 8), (10, 4), (5, 1)])
def test_stalled_submissions_flush_in_max_batch_chunks(
    served_engine, queries, coalescer_gate, k, max_batch
):
    """Reaches the capped pop: k requests that arrived during a flush are
    served as batches of min(k, max_batch), the rest left for the next pop."""
    reference = served_engine.streaming_classifier().classify(queries[:k])
    with served_engine.serving_queue(max_batch=max_batch) as queue:
        coalescer_gate.stall(queue)
        futures = queue.submit_many(queries[:k])
        coalescer_gate.release()
        results = [f.result(timeout=60) for f in futures]
    sizes = [r.batch_size for r in results]
    assert sizes[0] == min(k, max_batch)
    assert max(sizes) <= max_batch
    assert sizes == [
        min(max_batch, k - (i // max_batch) * max_batch) for i in range(k)
    ]
    decisions = np.array([r.decision_value for r in results])
    assert decisions.tobytes() == reference.decision_values.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_decisions_invariant_under_arrival_interleaving(
    served_engine, queries, coalescer_gate, seed
):
    """Reaches every pop: requests sent one by one into a free-running
    coalescer, in bursts behind a stalled flush, and from racing threads,
    with and without the memo.  Each decision is byte-identical to
    classify() however the arrivals interleaved with the flushes."""
    reference = served_engine.streaming_classifier().classify(queries)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(queries))
    cuts = np.sort(rng.choice(np.arange(1, len(queries)), size=3, replace=False))
    futures = {}

    def submit(queue, ids):
        for i in ids:
            futures[i] = queue.submit(queries[i])

    with served_engine.serving_queue(
        max_batch=int(rng.integers(1, 9)), memoize=bool(seed % 2)
    ) as queue:
        for segment, ids in enumerate(np.split(order, cuts)):
            mode = (segment + seed) % 3
            if mode == 0:
                submit(queue, ids)
            elif mode == 1:
                coalescer_gate.stall(queue)
                submit(queue, ids)
                coalescer_gate.release()
            else:
                threads = [
                    threading.Thread(target=submit, args=(queue, part))
                    for part in np.array_split(ids, 3)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
        results = [futures[i].result(timeout=60) for i in range(len(queries))]
    decisions = np.array([r.decision_value for r in results])
    predictions = np.array([r.prediction for r in results])
    assert decisions.tobytes() == reference.decision_values.tobytes()
    assert np.array_equal(predictions, reference.predictions)


# ----------------------------------------------------------------------
# Relation 7: a poisoned neighbour changes no other output.
# ----------------------------------------------------------------------
POISON = np.full(4, 0.125)


def _serve_one_batch(served_engine, rows, coalescer_gate, memoize):
    """Serve ``rows`` as one coalesced flush, then replay them as another;
    returns the queue (closed) and both passes' futures."""
    passes = []
    with served_engine.serving_queue(max_batch=64, memoize=memoize) as queue:
        for _ in range(2):
            coalescer_gate.stall(queue)
            futures = queue.submit_many(rows)
            coalescer_gate.release()
            queue.flush()
            passes.append(futures)
    return queue, passes


@pytest.mark.parametrize("seed", range(6))
def test_poisoned_request_leaves_every_other_output_byte_identical(
    served_engine, queries, coalescer_gate, monkeypatch, seed
):
    """Adding requests whose classify raises to any batch leaves every other
    output byte-identical, fails only the poisoned requests (with the error
    their own score raised), and memoises and counts only the others."""
    gated = StreamingNystroemClassifier.classify

    def classify_raising_on_poison(classifier, X):
        if any(row.tobytes() == POISON.tobytes() for row in np.atleast_2d(X)):
            raise RuntimeError("poisoned row")
        return gated(classifier, X)

    monkeypatch.setattr(
        StreamingNystroemClassifier, "classify", classify_raising_on_poison
    )
    rng = np.random.default_rng(seed)
    clean = queries[rng.choice(len(queries), int(rng.integers(1, 13)), replace=False)]
    poisoned = clean
    for _ in range(1 + seed % 2):
        position = int(rng.integers(0, len(poisoned) + 1))
        poisoned = np.insert(poisoned, position, POISON, axis=0)
    bad = [i for i, row in enumerate(poisoned) if row.tobytes() == POISON.tobytes()]
    memoize = bool(seed % 3)

    clean_queue, clean_passes = _serve_one_batch(
        served_engine, clean, coalescer_gate, memoize
    )
    queue, passes = _serve_one_batch(served_engine, poisoned, coalescer_gate, memoize)
    for futures, clean_futures in zip(passes, clean_passes):
        for i in bad:
            assert isinstance(futures[i].exception(timeout=60), RuntimeError)
        served = [f.result(timeout=60) for i, f in enumerate(futures) if i not in bad]
        expected = [f.result(timeout=60) for f in clean_futures]
        assert {r.batch_size for r in served} == {len(poisoned)}
        assert np.array([r.decision_value for r in served]).tobytes() == np.array(
            [r.decision_value for r in expected]
        ).tobytes()
        assert [r.prediction for r in served] == [r.prediction for r in expected]
    # Failed requests are neither memoised (the replay misses them again)
    # nor counted as served.
    assert queue.memo_hits == clean_queue.memo_hits
    assert queue.metrics.total_requests == clean_queue.metrics.total_requests


# ----------------------------------------------------------------------
# Relation 5: Nystrom reconstruction error is monotone in the rank.
# ----------------------------------------------------------------------
def test_rank_monotonicity_of_reconstruction_error():
    data = balanced_subsample(
        generate_elliptic_like(DatasetSpec(num_samples=300, num_features=4, seed=9)),
        20,
        seed=1,
    )
    engine = KernelEngine(ANSATZ)
    from repro.svm import FeatureScaler

    Xs = FeatureScaler().fit_transform(data.features)
    K_exact = engine.gram(Xs).matrix
    m = 10
    errors = []
    for rank in (1, 2, 4, 8, m):
        fmap = NystroemFeatureMap(
            engine,
            NystroemConfig(num_landmarks=m, strategy="greedy", seed=0, rank=rank),
        )
        phi = fmap.fit_transform(Xs)
        errors.append(NystroemFeatureMap.reconstruction_error(K_exact, phi))
    for lower, higher in zip(errors[1:], errors[:-1]):
        assert lower <= higher + 1e-12, errors
    # The sweep is not vacuous: more rank must measurably help somewhere.
    assert errors[-1] < errors[0]
