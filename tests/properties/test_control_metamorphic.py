"""Metamorphic relations of the adaptive control plane.

The control loop's whole contract is that it moves *how* work is batched,
never *what* any request computes: every knob it may touch (``max_batch``,
``encode_batch_size``, the shed high-water mark) only re-slices or
re-chunks work whose values are batching-invariant by the engine's
contract.  The relations below pin that
-- predictions byte-identical with the controller off vs driving hard under
every shipped policy, knob changes applied before / with requests pending /
after a stream, a mid-stream knob change partitioning the stream exactly at
the recorded tuning version, encode re-chunking on guaranteed-cold rows,
and the fleet-level loop steering a multi-replica router mid-traffic.
"""

import numpy as np
import pytest

from repro.approx import NystroemConfig, StreamingNystroemClassifier
from repro.config import AnsatzConfig, TuningConfig
from repro.control import AdaptiveController
from repro.core import QuantumKernelInferenceEngine
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like
from repro.exceptions import ServingError
from repro.serving import AsyncServingQueue, ReplicaRouter

ANSATZ = AnsatzConfig(num_features=4, interaction_distance=1, layers=1, gamma=0.6)


@pytest.fixture(scope="module")
def payload():
    data = balanced_subsample(
        generate_elliptic_like(DatasetSpec(num_samples=400, num_features=4, seed=11)),
        32,
        seed=3,
    )
    engine = QuantumKernelInferenceEngine(
        ANSATZ, approximation=NystroemConfig(num_landmarks=8, seed=0)
    )
    engine.fit(data.features, data.labels)
    return engine.serving_payload()


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(99)
    return rng.normal(size=(24, 4))


@pytest.fixture(scope="module")
def reference(payload, queries):
    """Ground truth: the model's answers with no serving stack at all."""
    clf = StreamingNystroemClassifier.from_serving_payload(payload)
    return list(clf.classify(queries).decision_values)


def _classifier(payload):
    return StreamingNystroemClassifier.from_serving_payload(payload)


def _drain(futures):
    return [f.result(timeout=30).decision_value for f in futures]


# ----------------------------------------------------------------------
# Relation 1: the controller on (any policy, stepped hard) vs off changes
# no prediction, ever.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", ["static", "depth-proportional"])
def test_controller_on_vs_off_is_byte_identical(
    payload, queries, reference, policy
):
    with AsyncServingQueue(_classifier(payload), max_batch=4) as queue:
        controller = AdaptiveController(
            queue,
            policy=policy,
            tuning=TuningConfig(min_batch=1, batch_ceiling=16),
            cooldown_steps=0,
            deadband=0.0,
        )
        outputs = []
        # Step between every submission burst: the loop adjusts knobs while
        # traffic is in flight, at whatever cadence the policy likes.
        for chunk in np.array_split(queries, 6):
            futures = queue.submit_many(chunk)
            controller.step()
            outputs.extend(_drain(futures))
        assert controller.step_count == 6
    assert outputs == reference


# ----------------------------------------------------------------------
# Relation 2: knob-change timing relative to a pending stream is invisible
# in values.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("timing", ["before", "pending", "after"])
def test_knob_timing_invariance(
    payload, queries, reference, timing, coalescer_gate
):
    with AsyncServingQueue(
        _classifier(payload),
        max_batch=64,  # larger than the stream
    ) as queue:
        new_knobs = dict(max_batch=3)
        if timing == "before":
            queue.apply_tuning(**new_knobs)
            futures = queue.submit_many(queries)
            queue.flush()
        elif timing == "pending":
            # The whole stream sits in the pending buffer, behind a stalled
            # flush, when the knobs land: the next flush decisions re-slice
            # it into batches of 3, none dropped, none reordered, none
            # recomputed differently.
            coalescer_gate.stall(queue)
            futures = queue.submit_many(queries)
            queue.apply_tuning(**new_knobs)
            coalescer_gate.release()
            queue.flush()
            assert {f.result(timeout=30).batch_size for f in futures} == {3}
        else:
            futures = queue.submit_many(queries)
            queue.flush()
            queue.apply_tuning(**new_knobs)
        outputs = _drain(futures)
        assert queue.tuning.version == 1
        assert queue.knob_adjustments == 1
    assert outputs == reference


# ----------------------------------------------------------------------
# Relation 3: a stream split across a knob change partitions exactly, and
# both halves answer identically to the unsplit reference.
# ----------------------------------------------------------------------
def test_stream_partitions_at_tuning_version(payload, queries, reference):
    with AsyncServingQueue(_classifier(payload), max_batch=8) as queue:
        assert queue.tuning.version == 0
        head = queue.submit_many(queries[:12])
        queue.flush()
        installed = queue.apply_tuning(max_batch=2)
        assert installed.version == 1
        assert queue.tuning is installed
        tail = queue.submit_many(queries[12:])
        outputs = _drain(head) + _drain(tail)
    # Exact concatenation: coalescing under either knob generation never
    # bleeds into the other half's values.
    assert outputs == reference


# ----------------------------------------------------------------------
# Relation 4: re-chunking the encode sweep mid-stream on guaranteed-cold
# rows changes nothing.
# ----------------------------------------------------------------------
def test_encode_chunk_change_is_invisible_on_cold_rows(payload, queries, reference):
    outputs = {}
    for label, chunk_sizes in (("fixed", [None]), ("swept", [1, 2, 7])):
        with AsyncServingQueue(
            _classifier(payload),
            max_batch=4,
            memoize=False,  # every row must truly re-encode
        ) as queue:
            collected = []
            for i, chunk in enumerate(np.array_split(queries, len(chunk_sizes))):
                if chunk_sizes[i] is not None:
                    queue.apply_tuning(encode_batch_size=chunk_sizes[i])
                    assert queue.encode_batch_size == chunk_sizes[i]
                collected.extend(_drain(queue.submit_many(chunk)))
            outputs[label] = collected
    assert outputs["fixed"] == outputs["swept"] == reference


# ----------------------------------------------------------------------
# Relation 5: the closed loop steering a replica fleet mid-traffic -- knob
# fan-out, shed-threshold moves and all -- is byte-identical to no loop.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("num_replicas", [1, 3])
def test_fleet_controller_is_byte_identical(
    payload, queries, reference, num_replicas
):
    with ReplicaRouter(
        payload,
        num_replicas=num_replicas,
        policy="round-robin",
        max_batch=4,
        queue_depth_high_water=4096,  # configured, so the loop may move it
    ) as router:
        controller = AdaptiveController(
            router,
            policy="depth-proportional",
            tuning=TuningConfig(
                min_batch=1, batch_ceiling=16, min_high_water=4,
                high_water_ceiling=4096,
            ),
            cooldown_steps=0,
            deadband=0.0,
        )
        outputs = []
        for chunk in np.array_split(queries, 4):
            futures = router.submit_many(chunk)
            controller.step()
            outputs.extend(_drain(futures))
        view = router.metrics_view()
        assert view["shed_count"] == 0  # steering never sheds by itself
        assert view["total_routed"] == len(queries)
    assert outputs == reference


# ----------------------------------------------------------------------
# Guards: the versioned knob surface validates before mutating and dies
# with the queue.
# ----------------------------------------------------------------------
def test_apply_tuning_validates_atomically(payload, queries, reference):
    with AsyncServingQueue(_classifier(payload), max_batch=4) as queue:
        before = queue.tuning
        engine_chunk = queue.encode_batch_size
        for bad in (
            dict(max_batch=0),
            dict(encode_batch_size=0),
            # One good knob + one bad knob: nothing may be installed.
            dict(max_batch=8, encode_batch_size=0),
            dict(max_batch=0, encode_batch_size=8),
        ):
            with pytest.raises(ServingError):
                queue.apply_tuning(**bad)
        assert queue.tuning is before  # no partial installs
        assert queue.encode_batch_size == engine_chunk
        assert queue.knob_adjustments == 0
        outputs = _drain(queue.submit_many(queries))
    assert outputs == reference
    with pytest.raises(ServingError, match="closed"):
        queue.apply_tuning(max_batch=8)
