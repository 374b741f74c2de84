"""Metamorphic relations of the batched encoding path.

The batched encoding contract mirrors the overlap path's: *how* a set of
feature vectors is encoded -- one at a time, in one stacked pass, chunked,
reordered, split, or interleaved with cache hits -- must not move a single
bit of any state, kernel entry or served prediction.  Those equivalences
are exact (``tobytes()`` / ``np.array_equal``); the row-alone oracle is
:meth:`KernelEngine.encode_row`.  The exact state of the row's circuit (its
dense statevector) is the oracle to rounding: ``1 - |<a|b>|^2 <= 1e-12`` at
the default cutoff, and each bond keeps the rank the cutoff gives on the
exact state's Schmidt spectrum; under a lossy cap the infidelity is at most
``(sum_k sqrt(eps_k)) ** 2`` over the state's truncation records.
Gate-by-gate simulation (:meth:`KernelEngine.simulate_row`) and the
unmerged circuit agree to the same rounding.
"""

import sys
import threading
from contextlib import contextmanager
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
from repro.engine import engine as engine_module
from repro.exceptions import TruncationError
from repro.mps import MPS, TruncationPolicy
from repro.mps import encoding
from repro.serving import AsyncServingQueue
from repro.statevector import StatevectorSimulator

ANSATZ = AnsatzConfig(num_features=4, interaction_distance=2, layers=1, gamma=0.7)


def _states_bytes(states):
    return [tuple(t.tobytes() for t in s.tensors) for s in states]


def _engine(use_cache=False):
    return KernelEngine(ANSATZ, config=EngineConfig(use_cache=use_cache))


def _chunk_rows(rows):
    """Encode in stacked sweeps of at most ``rows`` rows while it is open."""
    return mock.patch.object(engine_module, "ENCODE_CHUNK_ROWS", rows)


def _per_point(X):
    """The oracle: every row encoded alone through ``encode_row``."""
    engine = _engine()
    return [engine.encode_row(row) for row in X]


# ----------------------------------------------------------------------
# Engine-level invariances (hypothesis-driven)
# ----------------------------------------------------------------------
# The encoder contract on four cases: exact (the default cutoff); a lossy
# bond cap that cuts into the 6-qubit ansatz's middle bonds; a first rung
# of 2, so rows part ways (2 -> 4 -> 8) at bonds their own ranks decide;
# and a 12-qubit register whose rows keep more than the first rung of 16.
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
    (
        AnsatzConfig(num_features=12, interaction_distance=3, layers=2, gamma=0.5),
        SimulationConfig(),
        encoding.FIRST_CLAMP,
    ),
]


def _dense(row, ansatz):
    """The exact state of ``row``'s circuit, as a statevector."""
    simulator = StatevectorSimulator(ansatz.num_features)
    simulator.apply_circuit(build_feature_map_circuit(row, ansatz))
    return simulator.statevector.ravel()


def _infidelity(state, vector):
    amplitudes = state.to_statevector()
    overlap = abs(np.vdot(vector, amplitudes)) ** 2
    return 1.0 - overlap / np.vdot(amplitudes, amplitudes).real


@settings(max_examples=12, deadline=None)
@given(
    case=st.sampled_from(CONTRACT_CASES),
    rows=st.integers(min_value=2, max_value=8),
    data=st.data(),
)
def test_a_rows_state_depends_on_the_row_alone(
    case, rows, data, states_close, record_angle
):
    """Chunk size, order, neighbours and solo-vs-batch never move a byte of
    a row's state; against the exact state it is within 1e-12, or within
    its record bound under the lossy policy; under the exact policy the
    gate-by-gate simulation and the unmerged circuit are within 1e-12
    too."""
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

    def engine():
        return KernelEngine(ansatz, simulation=simulation)

    with mock.patch.object(encoding, "FIRST_CLAMP", first_clamp):
        states = engine().encode_rows(X)
        blobs = _states_bytes(states)
        with _chunk_rows(chunk):
            assert _states_bytes(engine().encode_rows(X)) == blobs
        for order in (perm, neighbours):
            reordered = _states_bytes(engine().encode_rows(X[order]))
            assert reordered == [blobs[i] for i in order]
        solo = engine()
        assert _states_bytes([solo.encode_row(row) for row in X]) == blobs
    for row, state in zip(X, states):
        bound = 1e-12 + record_angle(state) ** 2
        assert _infidelity(state, _dense(row, ansatz)) <= bound
    if simulation.max_bond_dim is None:
        states_close(states, [solo.simulate_row(row).state for row in X])
        states_close(
            states, [_apply_circuit(build_feature_map_circuit(row, ansatz)) for row in X]
        )


def _near_the_cutoff(spectrum, cutoff, slack):
    """Whether some tail weight of a Schmidt spectrum lies within ``slack``
    of the cutoff, on the square-root scale: there a perturbation of the
    state of norm ``slack`` can move the rank the cutoff keeps (Mirsky's
    inequality bounds how far the tail's root moves)."""
    squared = np.sort(spectrum)[::-1] ** 2
    tails = np.cumsum(squared[::-1])[::-1] / squared.sum()
    return bool(np.any(np.abs(np.sqrt(tails) - np.sqrt(cutoff)) <= slack))


@settings(max_examples=40, deadline=None)
@given(
    qubits=st.integers(min_value=2, max_value=10),
    data=st.data(),
)
def test_engine_states_are_the_exact_states_at_their_schmidt_ranks(
    qubits, data, record_angle
):
    """Every engine state is within 1e-12 of the dense state of its circuit,
    and every bond keeps the rank ``select_rank`` gives on that state's
    Schmidt spectrum.  A bond whose exact tail weight sits at the cutoff,
    within what the state's own earlier truncations (at most
    ``record_angle`` in norm) or the dense SVD's rounding can move, is
    not compared: either rank is right there."""
    ansatz = AnsatzConfig(
        num_features=qubits,
        interaction_distance=data.draw(
            st.integers(min_value=1, max_value=min(3, qubits - 1)), label="d"
        ),
        layers=data.draw(st.integers(min_value=1, max_value=3), label="r"),
        gamma=data.draw(st.floats(min_value=0.05, max_value=1.5), label="gamma"),
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    X = rng.uniform(0.0, 2.0, size=(3, qubits))
    X[rng.random(X.shape) < 0.2] = 1.0
    policy = TruncationPolicy()
    for row, state in zip(X, KernelEngine(ansatz).encode_rows(X)):
        vector = _dense(row, ansatz)
        assert _infidelity(state, vector) <= 1e-12
        slack = record_angle(state) + 1e-6 * np.sqrt(policy.cutoff)
        for bond, kept in enumerate(state.bond_dimensions, start=1):
            spectrum = np.linalg.svd(vector.reshape(2**bond, -1), compute_uv=False)
            if not _near_the_cutoff(spectrum, policy.cutoff, slack):
                assert kept == policy.select_rank(spectrum)[0]


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
    with _chunk_rows(chunk):
        chunked = _engine().encode_rows(X)
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
    before = warm.backend.num_simulations
    warm_states = _states_bytes(warm.encode_rows(X))
    assert warm_states == cold_states
    # Cache-aware batching: only the 5 unseen rows were simulated.
    assert warm.backend.num_simulations - before == 5


def test_gram_invariant_under_batch_encoding(rng, monkeypatch):
    X = rng.uniform(0.05, 1.95, size=(7, 4))
    states = _per_point(X)
    # The oracle: per-point states, one batched_overlaps call per pair.
    K_seq = np.eye(7)
    for i in range(7):
        for j in range(i + 1, 7):
            value = np.abs(batched_overlaps([(states[i], states[j])]))[0] ** 2
            K_seq[i, j] = K_seq[j, i] = value
    monkeypatch.setattr(engine_module, "ENCODE_CHUNK_ROWS", 3)
    K_bat = _engine().gram(X).matrix
    assert np.array_equal(K_seq, K_bat)


def test_cache_occupancy_does_not_change_tree_states(rng):
    """Warm store entries only shrink the encoded subset; the remaining cold
    rows still encode in one stacked pass and match the cold encode bit for
    bit."""
    ansatz = AnsatzConfig(num_features=5, interaction_distance=1, layers=2, gamma=0.8)
    X = rng.uniform(0.05, 1.95, size=(8, 5))
    cold = KernelEngine(ansatz, config=EngineConfig(use_cache=True))
    cold_states = _states_bytes(cold.encode_rows(X))

    warm = KernelEngine(ansatz, config=EngineConfig(use_cache=True))
    warm.encode_rows(X[2:5])
    before = warm.backend.num_simulations
    warm_states = _states_bytes(warm.encode_rows(X))
    assert warm_states == cold_states
    assert warm.backend.num_simulations - before == 5


def _apply_circuit(circuit, policy=None):
    state = MPS.zero_state(circuit.num_qubits, policy or TruncationPolicy())
    state.apply_circuit(circuit)
    return state


@pytest.mark.parametrize("layers", [1, 2])
def test_lossy_batch_stays_within_the_record_bound(rng, record_angle, layers):
    """Under a lossy cap every state is within ``(sum_k sqrt(eps_k)) ** 2``
    of the exact state (to rounding: one truncation meets it with
    equality), its cumulative weight is its records' sum, and each row
    alone gives the same bytes."""
    ansatz = AnsatzConfig(num_features=6, interaction_distance=3, layers=layers, gamma=1.0)
    simulation = SimulationConfig(max_bond_dim=4, allow_lossy_cap=True)
    X = rng.uniform(0.05, 1.95, size=(4, 6))
    engine = KernelEngine(ansatz, simulation=simulation)
    batched = engine.encode_rows(X)
    assert max(s.cumulative_discarded_weight for s in batched) > 1e-6
    for row, state in zip(X, batched):
        assert _infidelity(state, _dense(row, ansatz)) <= 1e-12 + record_angle(state) ** 2
        weights = [r.discarded_weight for r in state.truncation_records]
        assert state.cumulative_discarded_weight == pytest.approx(sum(weights))
    alone = [engine.encode_row(row) for row in X]
    assert _states_bytes(batched) == _states_bytes(alone)


# ----------------------------------------------------------------------
# Row pieces: a split encode is the one-piece encode, bit for bit
# ----------------------------------------------------------------------
def _in_pieces(pieces):
    """Split every encode into ``pieces`` row pieces while open: the core
    count is forced and the split's row and width floors lowered to 1."""
    return mock.patch.multiple(
        encoding, _cores=lambda: pieces, MIN_PIECE_ROWS=1, MIN_PIECE_WIDTH=1
    )


@contextmanager
def _piece_sizes():
    """The row count of every piece encoded while open, from any thread."""
    sizes = []
    original = encoding._encode_rows

    def recorded(batch, angles, policy):
        sizes.append(len(angles))
        return original(batch, angles, policy)

    with mock.patch.object(encoding, "_encode_rows", recorded):
        yield sizes


def _split(rows, pieces):
    """The piece sizes of ``rows`` rows in ``pieces`` contiguous pieces."""
    return sorted(rows * (k + 1) // pieces - rows * k // pieces for k in range(pieces))


def _encoded(ansatz, simulation, X):
    """What an encode leaves: each state's tensor bytes, records and
    cumulative discarded weight, and the backend's counters (but its
    wall time)."""
    engine = KernelEngine(ansatz, simulation=simulation)
    states = engine.encode_rows(X)
    counters = engine.backend.lifetime_summary()
    del counters["wall_simulation_time_s"]
    return [
        (
            tuple(t.tobytes() for t in s.tensors),
            s.truncation_records,
            s.cumulative_discarded_weight,
        )
        for s in states
    ], counters


@settings(max_examples=12, deadline=None)
@given(
    case=st.sampled_from(CONTRACT_CASES),
    rows=st.integers(min_value=3, max_value=9),
    data=st.data(),
)
def test_encoding_in_row_pieces_moves_no_bit(case, rows, data):
    """One batch encoded in 1, 2 or 3 row pieces, each on its own thread,
    leaves byte-identical tensors, records, cumulative discarded weights and
    backend counters, and no thread behind."""
    ansatz, simulation, first_clamp = case
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    X = rng.uniform(0.05, 1.95, size=(rows, ansatz.num_features))
    X[rng.random(X.shape) < data.draw(st.sampled_from([0.0, 0.3]), label="flat")] = 1.0
    with mock.patch.object(encoding, "FIRST_CLAMP", first_clamp):
        with _in_pieces(1):
            whole = _encoded(ansatz, simulation, X)
        for pieces in (2, 3):
            threads = threading.active_count()
            with _in_pieces(pieces), _piece_sizes() as sizes:
                assert _encoded(ansatz, simulation, X) == whole
            assert sorted(sizes) == _split(rows, pieces)
            assert threading.active_count() == threads


@pytest.mark.parametrize("pieces", [2, 3])
def test_rows_that_part_ways_at_rungs_encode_the_same_in_pieces(pieces):
    """12 qubits at ``d = 3``: these rows keep ranks on both sides of the
    first rung, so they part ways into stacks of their own within each
    piece."""
    ansatz = AnsatzConfig(num_features=12, interaction_distance=3, layers=2, gamma=0.5)
    X = np.random.default_rng(5).uniform(-0.2, 0.2, size=(8, 12))
    states = KernelEngine(ansatz).encode_rows(X)
    assert {s.max_bond_dimension > encoding.FIRST_CLAMP for s in states} == {True, False}
    whole = _encoded(ansatz, SimulationConfig(), X)
    with _in_pieces(pieces), _piece_sizes() as sizes:
        assert _encoded(ansatz, SimulationConfig(), X) == whole
    assert sorted(sizes) == _split(8, pieces)


def test_a_cap_without_lossy_permission_raises_the_unsplit_error():
    """A cap that would discard weight without ``allow_lossy_cap`` raises the
    message of the one-piece encode, split or not.  Row 0 first goes lossy
    at a bond the sweep reaches after row 1's, so a piece of row 0 alone
    would name another weight; the split is tried, fails, and is re-run
    whole once every thread has been joined."""
    ansatz = AnsatzConfig(num_features=6, interaction_distance=2, layers=2, gamma=0.9)
    X = np.random.default_rng(3).uniform(0.05, 1.95, size=(2, 6))
    X[0, 4:] = 1.0  # no entangler crosses bond 4 in row 0
    strict = SimulationConfig(max_bond_dim=2)

    def message(rows):
        with pytest.raises(TruncationError) as raised:
            KernelEngine(ansatz, simulation=strict).encode_rows(rows)
        return str(raised.value)

    whole = message(X)
    assert message(X[:1]) != whole
    threads = threading.active_count()
    with _in_pieces(2), _piece_sizes() as sizes:
        assert message(X) == whole
    assert sizes[-1] == 2 and sorted(sizes[:-1]) == [1, 1]
    assert threading.active_count() == threads


def test_more_pieces_than_cores_under_a_short_switch_interval():
    """Six pieces on threads that the interpreter switches every microsecond
    still put every state in its row's place, bit for bit."""
    ansatz = CONTRACT_CASES[1][0]
    X = np.random.default_rng(17).uniform(0.05, 1.95, size=(12, ansatz.num_features))
    whole = _encoded(ansatz, SimulationConfig(), X)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            with _in_pieces(6), _piece_sizes() as sizes:
                assert _encoded(ansatz, SimulationConfig(), X) == whole
            assert sizes == [2] * 6
    finally:
        sys.setswitchinterval(interval)


def test_a_thread_that_cannot_start_leaves_the_encode_unsplit():
    """If the OS gives no thread, the batch is encoded in one piece."""
    X = np.random.default_rng(11).uniform(0.05, 1.95, size=(6, 4))
    whole = _encoded(ANSATZ, SimulationConfig(), X)

    def refuse(thread):
        raise RuntimeError("can't start new thread")

    with _in_pieces(3), _piece_sizes() as sizes:
        with mock.patch.object(threading.Thread, "start", refuse):
            assert _encoded(ANSATZ, SimulationConfig(), X) == whole
    assert sizes == [6]


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


def _classifier(fitted_parts):
    X, y = fitted_parts
    engine = KernelEngine(ANSATZ, config=EngineConfig(use_cache=True))
    feature_map = NystroemFeatureMap(engine, NystroemConfig(num_landmarks=6, seed=0))
    phi = feature_map.fit_transform(X)
    model = LinearSVC(C=1.0).fit(phi, y)
    return StreamingNystroemClassifier(feature_map, model)


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


def test_encode_chunk_size_is_invisible_on_cold_rows(
    fitted_parts, cold_stream, monkeypatch
):
    """The stacked-encode chunk size moves sweep granularity only:
    ``ENCODE_CHUNK_ROWS`` never moves a served bit."""
    # _serve disables the memo, so every row truly re-encodes.
    fixed = _serve(_classifier(fitted_parts), cold_stream, max_batch=8)
    for chunk in (1, 2, 7):
        monkeypatch.setattr(engine_module, "ENCODE_CHUNK_ROWS", chunk)
        served = _serve(_classifier(fitted_parts), cold_stream, max_batch=8)
        assert served.tobytes() == fixed.tobytes()
