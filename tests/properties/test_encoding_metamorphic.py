"""Metamorphic relations of the batched encoding path.

The batched encoding contract mirrors the overlap path's: *how* a set of
feature vectors is encoded -- one at a time, in one stacked sweep, chunked,
reordered, split, mixed with circuits of other structures, or interleaved
with cache hits -- must not move a single bit of any state, kernel entry or
served prediction.  Those equivalences are exact (``tobytes()`` /
``np.array_equal``); the row-alone oracle is :meth:`KernelEngine.encode_row`.
Per-point simulation of the same MPS steps (:meth:`KernelEngine.simulate_row`,
or :meth:`MPS.apply_circuit` for a circuit list) is the oracle to rounding:
same kept ranks and shapes, ``1 - |<a|b>|^2 <= 1e-12`` at the default cutoff.
The unmerged circuit of an engine-encoded row agrees to the same rounding.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approx import LinearSVC, NystroemConfig, NystroemFeatureMap
from repro.approx.streaming import StreamingNystroemClassifier
from repro.circuits import build_feature_map_circuit
from repro.config import AnsatzConfig, SimulationConfig
from repro.engine import EngineConfig, KernelEngine, batched_overlaps
from repro.mps import MPS, TruncationPolicy, encode_circuits
from repro.mps import encoding
from repro.serving import AsyncServingQueue

ANSATZ = AnsatzConfig(num_features=4, interaction_distance=2, layers=1, gamma=0.7)


def _states_bytes(states):
    return [tuple(t.tobytes() for t in s.tensors) for s in states]


def _engine(encode_batch_size=32, use_cache=False):
    return KernelEngine(
        ANSATZ,
        config=EngineConfig(use_cache=use_cache, encode_batch_size=encode_batch_size),
    )


def _per_point(X):
    """The oracle: every row encoded alone through ``encode_row``."""
    engine = _engine()
    return [engine.encode_row(row) for row in X]


# ----------------------------------------------------------------------
# Engine-level invariances (hypothesis-driven)
# ----------------------------------------------------------------------
# The encoder contract on two policies: exact (the default cutoff) and a
# lossy bond cap that cuts into the 6-qubit ansatz's middle bonds; and with
# a first clamp of 2, so rows change block (2 -> 4 -> 8) at gates their own
# ranks decide.
CONTRACT_CASES = [
    (ANSATZ, SimulationConfig(), encoding.FIRST_CLAMP),
    (
        AnsatzConfig(num_features=6, interaction_distance=2, layers=2, gamma=0.9),
        SimulationConfig(max_bond_dim=6, allow_lossy_cap=True),
        encoding.FIRST_CLAMP,
    ),
    (
        AnsatzConfig(num_features=6, interaction_distance=2, layers=2, gamma=0.9),
        SimulationConfig(),
        2,
    ),
]


@settings(max_examples=12, deadline=None)
@given(
    case=st.sampled_from(CONTRACT_CASES),
    rows=st.integers(min_value=2, max_value=8),
    data=st.data(),
)
def test_a_rows_state_depends_on_the_row_alone(case, rows, data, states_close):
    """Chunk size, order, neighbours and solo-vs-batch never move a byte of
    a row's state; against the per-point oracle (``simulate_row``) the kept
    ranks are equal and ``1 - |<a|b>|^2`` is at most 1e-12, or the lossy
    policy's own discarded weight; under the exact policy the unmerged
    circuit is within 1e-12 too."""
    ansatz, simulation, first_clamp = case
    seed = data.draw(st.integers(min_value=0, max_value=2**16), label="seed")
    chunk = data.draw(st.integers(min_value=1, max_value=rows), label="chunk")
    swap = data.draw(st.integers(min_value=0, max_value=rows - 2), label="swap")
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.05, 1.95, size=(rows, ansatz.num_features))
    # A feature at 1.0 zeroes its entanglers, so rows differ in rank.
    X[rng.random(X.shape) < data.draw(st.sampled_from([0.0, 0.3]), label="flat")] = 1.0
    perm = rng.permutation(rows)
    neighbours = np.arange(rows)
    neighbours[[swap, swap + 1]] = neighbours[[swap + 1, swap]]

    def engine(batch=32):
        return KernelEngine(
            ansatz,
            simulation=simulation,
            config=EngineConfig(encode_batch_size=batch),
        )

    with mock.patch.object(encoding, "FIRST_CLAMP", first_clamp):
        states = engine().encode_rows(X)
        blobs = _states_bytes(states)
        assert _states_bytes(engine(chunk).encode_rows(X)) == blobs
        for order in (perm, neighbours):
            reordered = _states_bytes(engine().encode_rows(X[order]))
            assert reordered == [blobs[i] for i in order]
        solo = engine()
        assert _states_bytes([solo.encode_row(row) for row in X]) == blobs
    states_close(states, [solo.simulate_row(row).state for row in X])
    if simulation.max_bond_dim is None:
        states_close(
            states,
            [_apply_circuit(build_feature_map_circuit(row, ansatz)) for row in X],
            same_steps=False,
        )


@settings(max_examples=10, deadline=None)
@given(
    rows=st.integers(min_value=2, max_value=9),
    chunk=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_chunk_size_invariance(rows, chunk, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.05, 1.95, size=(rows, 4))
    sequential = _per_point(X)
    chunked = _engine(encode_batch_size=chunk).encode_rows(X)
    assert _states_bytes(sequential) == _states_bytes(chunked)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.05, 1.95, size=(7, 4))
    perm = rng.permutation(7)
    direct = _states_bytes(_engine().encode_rows(X))
    permuted = _states_bytes(_engine().encode_rows(X[perm]))
    assert [direct[i] for i in perm] == permuted


def test_duplicate_rows_encode_identically(rng):
    X = rng.uniform(0.05, 1.95, size=(6, 4))
    X[3] = X[0]
    X[5] = X[0]
    states = _engine().encode_rows(X)
    blobs = _states_bytes(states)
    assert blobs[3] == blobs[0]
    assert blobs[5] == blobs[0]


def test_cache_occupancy_does_not_change_states(rng):
    X = rng.uniform(0.05, 1.95, size=(8, 4))
    cold = _engine(use_cache=True)
    cold_states = _states_bytes(cold.encode_rows(X))

    warm = _engine(use_cache=True)
    warm.encode_rows(X[:3])  # pre-populate part of the store
    warm.backend.reset_counters()
    warm_states = _states_bytes(warm.encode_rows(X))
    assert warm_states == cold_states
    # Cache-aware batching: only the 5 unseen rows were simulated.
    assert warm.backend.num_simulations == 5


def test_gram_invariant_under_batch_encoding(rng):
    X = rng.uniform(0.05, 1.95, size=(7, 4))
    states = _per_point(X)
    # The oracle: per-point states, one batched_overlaps call per pair.
    K_seq = np.eye(7)
    for i in range(7):
        for j in range(i + 1, 7):
            value = np.abs(batched_overlaps([(states[i], states[j])]))[0] ** 2
            K_seq[i, j] = K_seq[j, i] = value
    K_bat = _engine(encode_batch_size=3).gram(X).matrix
    assert np.array_equal(K_seq, K_bat)


# ----------------------------------------------------------------------
# Mixed-structure batches (encode_circuits groups them per structure)
# ----------------------------------------------------------------------
# The layers=1 schedule is a strict prefix of the layers=2 one, and the d=2
# schedule shares the d=1 schedule's opening block before diverging.
MIXED_ANSATZE = [
    AnsatzConfig(num_features=5, interaction_distance=1, layers=1, gamma=0.8),
    AnsatzConfig(num_features=5, interaction_distance=1, layers=2, gamma=0.8),
    AnsatzConfig(num_features=5, interaction_distance=2, layers=1, gamma=0.8),
]


def _mixed_circuits(rng, counts=(3, 3, 3), ansatze=MIXED_ANSATZE):
    return [
        build_feature_map_circuit(row, ansatz)
        for ansatz, count in zip(ansatze, counts)
        for row in rng.uniform(0.05, 1.95, size=(count, ansatz.num_features))
    ]


def _apply_circuit(circuit, policy=None):
    state = MPS.zero_state(circuit.num_qubits, policy or TruncationPolicy())
    state.apply_circuit(circuit)
    return state


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_mixed_batch_permutation_invariance(seed, states_close):
    rng = np.random.default_rng(seed)
    circuits = _mixed_circuits(rng, counts=(2, 3, 2))
    perm = rng.permutation(len(circuits))
    states = encode_circuits(circuits)
    direct = _states_bytes(states)
    permuted = _states_bytes(encode_circuits([circuits[i] for i in perm]))
    assert [direct[i] for i in perm] == permuted
    states_close(states, [_apply_circuit(c) for c in circuits])


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    split=st.integers(min_value=1, max_value=8),
)
def test_mixed_batch_partition_invariance(seed, split):
    """Splitting a mixed batch anywhere yields the same states as the union."""
    rng = np.random.default_rng(seed)
    circuits = _mixed_circuits(rng)
    together = _states_bytes(encode_circuits(circuits))
    apart = _states_bytes(encode_circuits(circuits[:split])) + _states_bytes(
        encode_circuits(circuits[split:])
    )
    assert together == apart


def test_mixed_batch_under_a_truncating_policy(rng, states_close):
    """A lossy policy's per-row rank choices match its per-point application,
    in a batch of two structures, and each row alone gives the same bytes."""
    policy = TruncationPolicy(max_bond_dim=4, allow_lossy_cap=True)
    ansatze = [
        AnsatzConfig(num_features=6, interaction_distance=3, layers=r, gamma=1.0)
        for r in (2, 1)
    ]
    circuits = _mixed_circuits(rng, counts=(3, 3), ansatze=ansatze)
    batched = encode_circuits(circuits, policy=policy)
    expected = [_apply_circuit(c, policy) for c in circuits]
    states_close(batched, expected)
    alone = [encode_circuits([c], policy=policy)[0] for c in circuits]
    assert _states_bytes(batched) == _states_bytes(alone)
    for a, e in zip(batched, expected):
        assert a.cumulative_discarded_weight == pytest.approx(
            e.cumulative_discarded_weight, rel=1e-6
        )


# ----------------------------------------------------------------------
# Served predictions through the queue cold path
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fitted_parts():
    """Fitted map + model, rebuilt per-classifier with a chosen engine."""
    rng = np.random.default_rng(7)
    X = rng.uniform(0.05, 1.95, size=(24, 4))
    y = (X.mean(axis=1) > 1.0).astype(int)
    return X, y


def _classifier(fitted_parts, encode_batch_size=32):
    X, y = fitted_parts
    engine = KernelEngine(
        ANSATZ,
        config=EngineConfig(use_cache=True, encode_batch_size=encode_batch_size),
    )
    feature_map = NystroemFeatureMap(engine, NystroemConfig(num_landmarks=6, seed=0))
    phi = feature_map.fit_transform(X)
    model = LinearSVC(C=1.0).fit(phi, y)
    return StreamingNystroemClassifier(feature_map, model, buffer_size=8)


@pytest.fixture(scope="module")
def cold_stream():
    # Entirely-unseen rows: every request exercises the cold encode path.
    return np.random.default_rng(23).uniform(0.05, 1.95, size=(20, 4))


def _serve(classifier, stream, max_batch):
    with AsyncServingQueue(
        classifier, max_batch=max_batch, memoize=False
    ) as queue:
        futures = queue.submit_many(stream)
        return np.array([f.result(timeout=120).decision_value for f in futures])


def test_cold_predictions_invariant_under_coalescing(fitted_parts, cold_stream):
    """Batch size of the queue must not move a bit of any cold prediction."""
    one = _serve(_classifier(fitted_parts), cold_stream, max_batch=1)
    many = _serve(_classifier(fitted_parts), cold_stream, max_batch=16)
    assert np.array_equal(one, many)


def test_cold_predictions_invariant_under_batch_encoding(fitted_parts, cold_stream):
    """Stacked encoding must reproduce the per-point path bit for bit."""
    batched = _serve(_classifier(fitted_parts), cold_stream, max_batch=8)
    classifier = _classifier(fitted_parts)
    pointwise = np.array(
        [classifier.classify(row[None, :]).decision_values[0] for row in cold_stream]
    )
    assert np.array_equal(batched, pointwise)


def test_cold_predictions_invariant_under_request_order(fitted_parts, cold_stream):
    classifier = _classifier(fitted_parts)
    direct = _serve(classifier, cold_stream, max_batch=8)
    perm = np.random.default_rng(3).permutation(len(cold_stream))
    permuted = _serve(_classifier(fitted_parts), cold_stream[perm], max_batch=8)
    assert np.array_equal(direct[perm], permuted)


def test_encode_batch_size_argument_is_invisible_on_cold_rows(
    fitted_parts, cold_stream
):
    """The served engine's stacked-encode chunk size moves sweep granularity
    only: ``EngineConfig.encode_batch_size`` never moves a served bit."""
    # _serve disables the memo, so every row truly re-encodes.
    fixed = _serve(_classifier(fitted_parts), cold_stream, max_batch=8)
    for chunk in (1, 2, 7):
        classifier = _classifier(fitted_parts, encode_batch_size=chunk)
        assert classifier.feature_map.engine.config.encode_batch_size == chunk
        served = _serve(classifier, cold_stream, max_batch=8)
        assert served.tobytes() == fixed.tobytes()
