"""Unit tests for the batched (layer-MPO) feature-map encoding path."""

import threading

import numpy as np
import pytest

from repro.backends import CpuBackend
from repro.circuits import build_feature_map_circuit, feature_map_batch
from repro.config import AnsatzConfig, SimulationConfig
from repro.engine import KernelEngine
from repro.exceptions import BackendError, SimulationError
from repro.mps import (
    MPS,
    FeatureMapBatch,
    InstrumentedMPS,
    TruncationPolicy,
    encode_circuits,
)
from repro.statevector import StatevectorSimulator


def _state_bytes(states):
    return [tuple(t.tobytes() for t in s.tensors) for s in states]


def _dense(row, ansatz):
    """The exact state of ``row``'s circuit, as a statevector."""
    simulator = StatevectorSimulator(ansatz.num_features)
    simulator.apply_circuit(build_feature_map_circuit(row, ansatz))
    return simulator.statevector.ravel()


def _infidelity(state, vector):
    amplitudes = state.to_statevector()
    overlap = abs(np.vdot(vector, amplitudes)) ** 2
    return 1.0 - overlap / np.vdot(amplitudes, amplitudes).real


# ----------------------------------------------------------------------
# Gate-by-gate simulation is the oracle, to rounding; a row alone is the
# oracle byte for byte
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "distance,features,layers",
    [(1, 4, 2), (2, 6, 2), (3, 8, 1), (2, 5, 3)],
)
def test_encode_circuits_matches_per_point(
    rng, states_close, distance, features, layers
):
    ansatz = AnsatzConfig(
        num_features=features,
        interaction_distance=distance,
        layers=layers,
        gamma=0.8,
    )
    X = rng.uniform(0.05, 1.95, size=(7, features))
    batched = encode_circuits(feature_map_batch(X, ansatz))
    engine = KernelEngine(ansatz)
    states_close(batched, [engine.simulate_row(row).state for row in X])
    alone = [encode_circuits(feature_map_batch(row[None], ansatz))[0] for row in X]
    assert _state_bytes(batched) == _state_bytes(alone)


def test_truncation_divergence_keeps_per_row_ranks(rng, record_angle):
    """Under a lossy cap, rows whose entanglers vanish keep low ranks next
    to capped rows in one stack; each state is within its record bound of
    the exact state and is the one its row gets alone."""
    ansatz = AnsatzConfig(num_features=6, interaction_distance=2, layers=2, gamma=0.8)
    policy = TruncationPolicy(max_bond_dim=3, allow_lossy_cap=True)
    X = rng.uniform(0.05, 1.95, size=(10, 6))
    # Features equal to 1.0 zero their RXX angles.
    X[2] = 1.0
    X[5] = 1.0
    X[7, :3] = 1.0
    batched = encode_circuits(feature_map_batch(X, ansatz), policy)
    ranks = [s.max_bond_dimension for s in batched]
    assert ranks[2] == ranks[5] == 1 and max(ranks) == 3
    lossy = [s for s in batched if s.cumulative_discarded_weight > 1e-12]
    assert lossy
    for row, state in zip(X, batched):
        assert _infidelity(state, _dense(row, ansatz)) <= 1e-12 + record_angle(state) ** 2
    alone = [encode_circuits(feature_map_batch(row[None], ansatz), policy)[0] for row in X]
    assert _state_bytes(batched) == _state_bytes(alone)


def test_padded_stack_keeps_each_rows_live_shapes():
    """Rows 0 and 2 entangle their two qubits and row 1 does not (a zero
    RXX angle keeps rank 1), so inside one padded stack each row keeps its
    own shapes."""
    batch = FeatureMapBatch(
        num_qubits=2,
        layers=1,
        edges=((0, 1),),
        angles=np.array([[0.3, 0.5, 1.1], [0.3, 0.5, 0.0], [0.7, 0.2, 0.4]]),
    )
    states = encode_circuits(batch)
    assert [s.max_bond_dimension for s in states] == [2, 1, 2]
    assert [[t.shape for t in s.tensors] for s in states] == [
        [(1, 2, 2), (2, 2, 1)],
        [(1, 2, 1), (1, 2, 1)],
        [(1, 2, 2), (2, 2, 1)],
    ]


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_records_are_one_per_compression_svd(rng, layers):
    """Every layer but the first of a deeper circuit is compressed by one
    SVD per bond; the records and counters follow."""
    ansatz = AnsatzConfig(num_features=5, interaction_distance=2, layers=layers, gamma=0.7)
    X = rng.uniform(0.1, 1.9, size=(5, 5))
    compressed = max(1, layers - 1)
    circuit = build_feature_map_circuit(X[0], ansatz, routed=False)
    for state in encode_circuits(feature_map_batch(X, ansatz)):
        records = state.truncation_records
        assert len(records) == compressed * 4
        assert state.orthogonality_center == 0
        assert state.gates_applied == circuit.num_gates
        assert state.two_qubit_gates_applied == circuit.num_two_qubit_gates
        assert state.cumulative_discarded_weight == float(
            np.cumsum([r.discarded_weight for r in records])[-1]
        )
        # The last sweep's records run from the last bond to the first.
        assert [r.kept for r in records[-4:]] == state.bond_dimensions[::-1]


def test_empty_and_single_circuit(states_close):
    ansatz = AnsatzConfig(num_features=4, interaction_distance=1, layers=1, gamma=0.5)
    assert encode_circuits(feature_map_batch(np.empty((0, 4)), ansatz)) == []
    row = np.full(4, 0.7)
    states_close(
        encode_circuits(feature_map_batch(row[None], ansatz)),
        [KernelEngine(ansatz).simulate_row(row).state],
    )


def test_malformed_batch_raises():
    angles = np.zeros((1, 4))
    with pytest.raises(SimulationError):
        encode_circuits(FeatureMapBatch(3, 1, ((0, 3),), angles))
    with pytest.raises(SimulationError):
        encode_circuits(FeatureMapBatch(3, 1, ((0, 1), (1, 2)), angles))


def _edges_within(num_qubits, distance):
    return tuple(
        (i, j)
        for i in range(num_qubits)
        for j in range(i + 1, min(i + distance, num_qubits - 1) + 1)
    )


@pytest.mark.parametrize(
    "num_qubits,edges,bond",
    [
        (4, _edges_within(4, 1), 2),
        (6, _edges_within(6, 2), 4),
        (7, _edges_within(7, 3), 8),
        (9, _edges_within(9, 4), 16),
        # Long and short edges: bond 3 carries the left endpoints {0, 1, 2}.
        (6, ((0, 5), (1, 3), (2, 3), (0, 1), (1, 4)), 8),
        # A star on qubit 3: from bond 2 on the bonds carry its spin alone.
        (5, ((0, 3), (1, 3), (2, 3), (3, 4), (0, 1)), 2),
    ],
)
def test_layer_mpo_is_the_dense_diagonal_phase(rng, num_qubits, edges, bond):
    """Contracted over its bonds, a row's layer MPO is the diagonal of
    ``exp(-i sum_e theta_e Z_i Z_j / 2)``, at bonds no wider than ``2 ** d``
    for a distance-``d`` layer."""
    from repro.mps.encoding import _layer_phases

    thetas = rng.uniform(-2.0, 2.0, size=(3, len(edges)))
    mpo = _layer_phases(num_qubits, edges, thetas)
    assert max(site.shape[3] for site in mpo) == bond
    bits = (np.arange(2**num_qubits)[:, None] >> np.arange(num_qubits)[::-1]) & 1
    z = 1.0 - 2.0 * bits
    for row, theta in enumerate(thetas):
        contracted = np.ones((1, 1))
        for site in mpo:
            contracted = np.einsum("al,lpr->apr", contracted, site[row]).reshape(
                -1, site.shape[3]
            )
        phase = sum(t * z[:, i] * z[:, j] for t, (i, j) in zip(theta, edges))
        np.testing.assert_allclose(
            contracted[:, 0], np.exp(-0.5j * phase), rtol=0, atol=1e-13
        )


# ----------------------------------------------------------------------
# Backend.simulate_batch
# ----------------------------------------------------------------------
ANSATZ = AnsatzConfig(num_features=5, interaction_distance=2, layers=2, gamma=0.7)


@pytest.fixture
def rows(rng):
    return rng.uniform(0.1, 1.9, size=(6, 5))


def test_simulate_batch_counters_match_per_point(rows, states_close):
    loop_backend = CpuBackend()
    circuits = [build_feature_map_circuit(row, ANSATZ) for row in rows]
    for circuit in circuits:
        loop_backend.simulate(circuit)
    batch_backend = CpuBackend()
    result = batch_backend.simulate_batch(feature_map_batch(rows, ANSATZ))

    assert batch_backend.num_simulations == loop_backend.num_simulations
    assert batch_backend.num_encode_batches == 1
    assert result.num_circuits == len(rows)
    states_close(list(result.states), [loop_backend.simulate(c).state for c in circuits])


def test_simulate_batch_empty():
    result = CpuBackend().simulate_batch(feature_map_batch(np.empty((0, 5)), ANSATZ))
    assert result.states == ()
    assert result.num_circuits == 0


def test_track_memory_encodes_gate_by_gate(rows):
    """A memory trace is per gate: ``simulate_batch`` refuses it, and an
    engine on a tracing backend encodes each row gate by gate."""
    backend = CpuBackend(SimulationConfig(track_memory=True))
    with pytest.raises(BackendError):
        backend.simulate_batch(feature_map_batch(rows, ANSATZ))
    states = KernelEngine(ANSATZ, backend=backend).encode_rows(rows)
    assert all(isinstance(s, InstrumentedMPS) and len(s.trace) for s in states)
    assert backend.num_simulations == len(rows)


def test_rows_on_different_rungs_part_ways(rng, states_close):
    """A row keeping more than ``FIRST_CLAMP`` on a bond is padded to the
    next rung there while a product-state row stays on the first, and every
    state is the one its row gets alone, in any order."""
    ansatz = AnsatzConfig(num_features=12, interaction_distance=3, layers=2, gamma=0.5)
    # All-ones features zero every entangling angle: a product state.
    X = np.vstack([rng.uniform(0.1, 1.9, size=(3, 12)), np.ones((1, 12))])
    states = encode_circuits(feature_map_batch(X, ansatz))
    widest = [s.max_bond_dimension for s in states]
    assert [w > 16 for w in widest] == [True, True, True, False]
    alone = [encode_circuits(feature_map_batch(row[None], ansatz))[0] for row in X]
    assert _state_bytes(states) == _state_bytes(alone)
    order = [3, 1, 0, 2]
    shuffled = encode_circuits(feature_map_batch(X[order], ansatz))
    assert _state_bytes(shuffled) == _state_bytes([alone[i] for i in order])
    states_close(states, [KernelEngine(ansatz).simulate_row(row).state for row in X])
    states_close(
        states,
        [_unmerged(build_feature_map_circuit(row, ansatz)) for row in X],
    )


def _unmerged(circuit):
    state = MPS.zero_state(circuit.num_qubits, TruncationPolicy())
    state.apply_circuit(circuit)
    return state


def test_truncation_records_are_built_only_when_read(monkeypatch):
    """A fit keeps each row's kept ranks, widths and weights as lists; the
    record objects appear on first read."""
    from repro.mps import mps as mps_module

    built = []
    record = mps_module.TruncationRecord

    def counting_record(**fields):
        built.append(fields)
        return record(**fields)

    monkeypatch.setattr(mps_module, "TruncationRecord", counting_record)
    engine = KernelEngine(ANSATZ)
    X = np.random.default_rng(3).uniform(0.05, 1.95, size=(6, 5))
    states = engine.gram(X).states
    assert built == []
    copy = states[0].copy()
    records = states[0].truncation_records
    assert len(records) == 4 and len(built) == 4
    assert states[0].truncation_records == records and len(built) == 4
    assert copy.truncation_records == records
    assert [r.bond_dimension_after for r in records] == states[0].bond_dimensions[::-1]


# ----------------------------------------------------------------------
# Row pieces: which encodes are split
# ----------------------------------------------------------------------
WIDE = AnsatzConfig(num_features=8, interaction_distance=2, layers=2, gamma=0.5)
NARROW = AnsatzConfig(num_features=8, interaction_distance=1, layers=2, gamma=0.5)


@pytest.mark.parametrize(
    "ansatz, rows, cores, pieces",
    [
        (WIDE, 127, 8, [127]),  # fewer than 2 x MIN_PIECE_ROWS rows
        (WIDE, 32, 8, [32]),  # a full serving flush
        (WIDE, 128, 1, [128]),  # one core
        (WIDE, 128, 2, [64, 64]),
        (WIDE, 200, 8, [66, 67, 67]),  # at least MIN_PIECE_ROWS a piece
        (NARROW, 128, 8, [128]),  # bonds of 4: per-site Python dominates
    ],
)
def test_an_encode_is_split_only_into_wide_enough_pieces(
    monkeypatch, ansatz, rows, cores, pieces
):
    """The calling thread encodes the first piece and every piece is a
    contiguous run of rows; the states are those of the one-piece encode."""
    from repro.mps import encoding

    batch = feature_map_batch(
        np.random.default_rng(rows).uniform(0.05, 1.95, size=(rows, 8)), ansatz
    )
    whole = _state_bytes(encode_circuits(batch))
    seen = []
    original = encoding._encode_rows

    def recorded(batch, angles, policy):
        seen.append((threading.current_thread() is threading.main_thread(), len(angles)))
        return original(batch, angles, policy)

    monkeypatch.setattr(encoding, "_cores", lambda: cores)
    monkeypatch.setattr(encoding, "_encode_rows", recorded)
    assert encoding.MIN_PIECE_ROWS == 64 and encoding.MIN_PIECE_WIDTH == 16
    assert _state_bytes(encode_circuits(batch)) == whole
    assert sorted(n for _main, n in seen) == pieces
    assert sum(main for main, _n in seen) == 1
    assert (True, pieces[0]) in seen
