"""Metamorphic relations of the atomic model swap.

A hot swap must change *which* model answers, and nothing else: every
prediction is byte-identical to what the model recorded in its
``model_version`` stamp would produce in isolation.  The relations below pin
that across swap timing relative to a coalesced flush (before / with
requests pending / after), the one-call service surface, warm vs cold
starts from the durable tier, and the response memo (which must never leak
answers across model generations).  The partition relation is the strongest form: a
request stream split across a swap equals the concatenation of old-model
answers and new-model answers at the recorded swap boundary.
"""

import numpy as np
import pytest

from repro.approx import NystroemConfig, StreamingNystroemClassifier
from repro.config import AnsatzConfig, ServingConfig
from repro.core import QuantumKernelInferenceEngine
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like
from repro.exceptions import ServingError
from repro.serving import AsyncServingQueue, serve

ANSATZ = AnsatzConfig(num_features=4, interaction_distance=1, layers=1, gamma=0.6)


@pytest.fixture(scope="module")
def payloads():
    """Two serving payloads of genuinely different models over one schema."""
    data = balanced_subsample(
        generate_elliptic_like(DatasetSpec(num_samples=400, num_features=4, seed=11)),
        32,
        seed=3,
    )
    built = []
    for num_landmarks, seed in ((8, 0), (12, 5)):
        engine = QuantumKernelInferenceEngine(
            ANSATZ, approximation=NystroemConfig(num_landmarks=num_landmarks, seed=seed)
        )
        engine.fit(data.features, data.labels)
        built.append(engine.serving_payload())
    return built


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(99)
    return rng.normal(size=(24, 4))


@pytest.fixture(scope="module")
def references(payloads, queries):
    """Per-version ground truth: what each model answers in isolation."""
    refs = []
    for payload in payloads:
        clf = StreamingNystroemClassifier.from_serving_payload(payload)
        refs.append(clf.classify(queries).decision_values)
    assert not np.array_equal(refs[0], refs[1])  # the swap must be observable
    return refs


def _check(results, references):
    """Every answer equals its stamped version's isolated reference."""
    for i, result in enumerate(results):
        expected = references[result.model_version][i % len(references[0])]
        assert result.decision_value == expected, (
            f"request {i} (version {result.model_version}) diverged"
        )


# ----------------------------------------------------------------------
# Relation 1: an identity swap is invisible in values, visible in version.
# ----------------------------------------------------------------------
def test_identity_swap_preserves_predictions(payloads, queries, references):
    with AsyncServingQueue(
        StreamingNystroemClassifier.from_serving_payload(payloads[0]),
        max_batch=8,
    ) as queue:
        before = [f.result(timeout=30) for f in queue.submit_many(queries)]
        version = queue.swap_payload(payloads[0])
        after = [f.result(timeout=30) for f in queue.submit_many(queries)]
    assert version == 1
    assert [r.decision_value for r in before] == [r.decision_value for r in after]
    assert {r.model_version for r in before} == {0}
    assert {r.model_version for r in after} == {1}
    _check(before, [references[0], references[0]])


# ----------------------------------------------------------------------
# Relation 2: swap timing relative to the coalescer never tears a batch.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("timing", ["before", "pending", "after"])
def test_swap_timing_invariance(
    payloads, queries, references, timing, coalescer_gate
):
    with AsyncServingQueue(
        StreamingNystroemClassifier.from_serving_payload(payloads[0]),
        max_batch=64,  # larger than the stream: one batch once released
    ) as queue:
        if timing == "before":
            queue.swap_payload(payloads[1])
            futures = queue.submit_many(queries)
            queue.flush()
        elif timing == "pending":
            # Requests sit in the pending buffer while the swap lands: they
            # must be scored by the new model, atomically, none dropped.
            # The flush stalled mid-score completes against the slot it
            # captured, the old one.
            in_flight = coalescer_gate.stall(queue)
            futures = queue.submit_many(queries)
            queue.swap_payload(payloads[1])
            assert queue.model_version == 1
            coalescer_gate.release()
            queue.flush()
            assert in_flight.result(timeout=30).model_version == 0
        else:
            futures = queue.submit_many(queries)
            queue.flush()
            queue.swap_payload(payloads[1])
        results = [f.result(timeout=30) for f in futures]

    expected_version = 0 if timing == "after" else 1
    assert {r.model_version for r in results} == {expected_version}
    assert [r.decision_value for r in results] == list(
        references[expected_version]
    )


# ----------------------------------------------------------------------
# Relation 3: the response memo never answers for a dead model generation.
# ----------------------------------------------------------------------
def test_memo_does_not_leak_across_swap(payloads, queries, references):
    repeat = np.vstack([queries, queries])  # second half = guaranteed memo hits
    with AsyncServingQueue(
        StreamingNystroemClassifier.from_serving_payload(payloads[0]),
        max_batch=8,
    ) as queue:
        warm = [f.result(timeout=30) for f in queue.submit_many(repeat)]
        assert queue.memo_hits > 0
        queue.swap_payload(payloads[1])
        fresh = [f.result(timeout=30) for f in queue.submit_many(queries)]
    assert [r.decision_value for r in warm[: len(queries)]] == list(references[0])
    # Post-swap answers must be the new model's, not memoised v0 responses.
    assert [r.decision_value for r in fresh] == list(references[1])


# ----------------------------------------------------------------------
# Relation 4: a swap through the service handle is the queue's swap.
# ----------------------------------------------------------------------
def test_handle_swap(payloads, queries, references):
    with serve(payloads[0], ServingConfig(max_batch=4)) as handle:
        before = [f.result(timeout=30) for f in handle.submit_many(queries)]
        version = handle.swap(payloads[1])
        handle.flush()
        after = [f.result(timeout=30) for f in handle.submit_many(queries)]
        assert handle.queue.swap_count == 1
    assert version == 1
    assert [r.decision_value for r in before] == list(references[0])
    assert [r.decision_value for r in after] == list(references[1])
    assert {r.model_version for r in after} == {1}


# ----------------------------------------------------------------------
# Relation 5: a service warm-started from the durable tier serves the swap
# identically to a cold one.
# ----------------------------------------------------------------------
def test_swap_agrees_across_warm_and_cold_starts(
    payloads, queries, references, tmp_path
):
    outputs = {}
    for label, root in (("cold", None), ("warm", str(tmp_path / "snapshots"))):
        config = ServingConfig(max_batch=4, snapshot_root=root)
        if root is not None:
            # Populate the snapshot the warm service will restore from.
            seeder = serve(payloads[0], config)
            [f.result(timeout=30) for f in seeder.submit_many(queries)]
            seeder.close(snapshot=True)
        with serve(payloads[0], config) as handle:
            if root is not None:
                assert handle.warm_up_report.loaded == len(queries)
            handle.swap(payloads[1])
            outputs[label] = [
                f.result(timeout=30).decision_value
                for f in handle.submit_many(queries)
            ]
    assert outputs["cold"] == outputs["warm"] == list(references[1])


# ----------------------------------------------------------------------
# Relation 6: a stream split across a swap partitions exactly at the
# recorded version boundary.
# ----------------------------------------------------------------------
def test_stream_partitions_at_swap_version(payloads, queries, references):
    with AsyncServingQueue(
        StreamingNystroemClassifier.from_serving_payload(payloads[0]),
        max_batch=8,
    ) as queue:
        futures = list(queue.submit_many(queries[:12]))
        queue.flush()
        queue.swap_payload(payloads[1])
        futures += list(queue.submit_many(queries[12:]))
        results = [f.result(timeout=30) for f in futures]

    versions = [r.model_version for r in results]
    assert versions == sorted(versions)  # monotone: no answer regresses
    for i, result in enumerate(results):
        assert result.decision_value == references[result.model_version][i]
    # The concatenation property: old-version answers are exactly the old
    # model's on the head, new-version answers the new model's on the tail.
    boundary = versions.index(1)
    assert list(references[0][:boundary]) == [
        r.decision_value for r in results[:boundary]
    ]
    assert list(references[1][boundary:]) == [
        r.decision_value for r in results[boundary:]
    ]


# ----------------------------------------------------------------------
# Guards: versions are strictly monotone; a closed queue cannot swap.
# ----------------------------------------------------------------------
def test_swap_rejects_stale_versions_and_closed_queue(payloads, queries):
    with AsyncServingQueue(
        StreamingNystroemClassifier.from_serving_payload(payloads[0]),
        max_batch=4,
    ) as queue:
        queue.swap_payload(payloads[1], version=5)
        with pytest.raises(ServingError, match="version"):
            queue.swap_payload(payloads[0], version=5)
        with pytest.raises(ServingError, match="version"):
            queue.swap_payload(payloads[0], version=3)
        assert queue.model_version == 5
    with pytest.raises(ServingError, match="closed"):
        queue.swap_payload(payloads[0])
