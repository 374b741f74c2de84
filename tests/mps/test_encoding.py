"""Unit tests for the batched (stacked-sweep) circuit encoding path."""

import numpy as np
import pytest

from repro.backends import CpuBackend
from repro.circuits import Circuit, GateKind, build_feature_map_circuit
from repro.config import AnsatzConfig, SimulationConfig
from repro.exceptions import BackendError, SimulationError
from repro.mps import (
    MPS,
    GateShapeLog,
    GateStacks,
    gates,
    InstrumentedMPS,
    TruncationPolicy,
    circuit_structure_signature,
    encode_circuits,
    group_circuits_by_structure,
)


def _reference_state(circuit, policy=None):
    state = MPS.zero_state(circuit.num_qubits, policy or TruncationPolicy())
    state.apply_circuit(circuit)
    return state


def _assert_states_bit_identical(actual, expected):
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert a.num_qubits == e.num_qubits
        for ta, te in zip(a.tensors, e.tensors):
            assert ta.shape == te.shape
            assert ta.tobytes() == te.tobytes()


# ----------------------------------------------------------------------
# Structure grouping
# ----------------------------------------------------------------------
def test_same_ansatz_circuits_share_one_structure(rng):
    ansatz = AnsatzConfig(num_features=5, interaction_distance=2, layers=2, gamma=0.7)
    X = rng.uniform(0.1, 1.9, size=(6, 5))
    circuits = [build_feature_map_circuit(row, ansatz) for row in X]
    signatures = {circuit_structure_signature(c) for c in circuits}
    assert len(signatures) == 1
    groups = group_circuits_by_structure(circuits)
    assert list(groups.values()) == [[0, 1, 2, 3, 4, 5]]


def test_different_ansatz_configs_split_structures(rng):
    a1 = AnsatzConfig(num_features=4, interaction_distance=1, layers=1, gamma=0.7)
    a2 = AnsatzConfig(num_features=4, interaction_distance=2, layers=1, gamma=0.7)
    rows = rng.uniform(0.1, 1.9, size=(2, 4))
    circuits = [
        build_feature_map_circuit(rows[0], a1),
        build_feature_map_circuit(rows[1], a2),
        build_feature_map_circuit(rows[1], a1),
    ]
    groups = group_circuits_by_structure(circuits)
    assert list(groups.values()) == [[0, 2], [1]]


# ----------------------------------------------------------------------
# Bit-identicality to per-point simulation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "distance,features,layers",
    [(1, 4, 2), (2, 6, 2), (3, 8, 1), (2, 5, 3)],
)
def test_encode_circuits_bit_identical_to_per_point(rng, distance, features, layers):
    ansatz = AnsatzConfig(
        num_features=features,
        interaction_distance=distance,
        layers=layers,
        gamma=0.8,
    )
    X = rng.uniform(0.05, 1.95, size=(7, features))
    circuits = [build_feature_map_circuit(row, ansatz) for row in X]
    batched = encode_circuits(circuits)
    _assert_states_bit_identical(batched, [_reference_state(c) for c in circuits])


def test_truncation_divergence_regroups_and_stays_identical(rng):
    # Features equal to 1.0 zero the RXX angles, so those members keep a
    # smaller bond dimension and must split off into their own shape group
    # mid-sweep.
    ansatz = AnsatzConfig(num_features=6, interaction_distance=2, layers=2, gamma=0.8)
    X = rng.uniform(0.05, 1.95, size=(10, 6))
    X[2] = 1.0
    X[5] = 1.0
    X[7, :3] = 1.0
    circuits = [build_feature_map_circuit(row, ansatz) for row in X]
    batched = encode_circuits(circuits)
    assert len({s.max_bond_dimension for s in batched}) > 1
    _assert_states_bit_identical(batched, [_reference_state(c) for c in circuits])


def test_regrouped_blocks_keep_first_occurrence_order():
    """After a split, the group holding the lowest member index goes first.

    Rows 0 and 2 entangle (CNOT after H keeps rank 2) and row 1 does not
    (identity keeps rank 1), so the last gate is logged for the rank-2 block
    (2 members) before the rank-1 block: the log, and with it the modelled
    seconds, do not depend on how the ranks sort.
    """
    h = np.broadcast_to(gates.hadamard(), (3, 2, 2))
    entanglers = np.stack([gates.cnot(), np.eye(4, dtype=complex), gates.cnot()])
    batch = GateStacks(
        num_qubits=2,
        num_circuits=3,
        targets=((0,), (0, 1), (1,)),
        gates=(h, entanglers, h),
    )
    log = GateShapeLog()
    states = encode_circuits(batch, log=log)
    assert log.entries[-2:] == [("1q", 2, 2, 1), ("1q", 1, 1, 1)]
    assert [s.max_bond_dimension for s in states] == [2, 1, 2]


def test_mixed_structure_batch(rng):
    a1 = AnsatzConfig(num_features=5, interaction_distance=1, layers=1, gamma=0.6)
    a2 = AnsatzConfig(num_features=5, interaction_distance=2, layers=2, gamma=0.6)
    rows = rng.uniform(0.1, 1.9, size=(6, 5))
    circuits = [
        build_feature_map_circuit(rows[i], a1 if i % 2 == 0 else a2, )
        for i in range(6)
    ]
    log = GateShapeLog()
    batched = encode_circuits(circuits, log=log)
    assert log.structure_groups == 2
    _assert_states_bit_identical(batched, [_reference_state(c) for c in circuits])


def test_accounting_matches_per_point(rng):
    ansatz = AnsatzConfig(num_features=5, interaction_distance=2, layers=2, gamma=0.7)
    X = rng.uniform(0.1, 1.9, size=(5, 5))
    circuits = [build_feature_map_circuit(row, ansatz) for row in X]
    for state, circuit in zip(encode_circuits(circuits), circuits):
        reference = _reference_state(circuit)
        assert state.orthogonality_center == reference.orthogonality_center
        assert state.gates_applied == reference.gates_applied
        assert (
            state.two_qubit_gates_applied == reference.two_qubit_gates_applied
        )
        assert (
            state.cumulative_discarded_weight
            == reference.cumulative_discarded_weight
        )
        assert state.truncation_records == reference.truncation_records


def test_empty_and_single_circuit():
    assert encode_circuits([]) == []
    ansatz = AnsatzConfig(num_features=4, interaction_distance=1, layers=1, gamma=0.5)
    circuit = build_feature_map_circuit(np.full(4, 0.7), ansatz)
    _assert_states_bit_identical(
        encode_circuits([circuit]), [_reference_state(circuit)]
    )


def test_unrouted_circuit_raises():
    circuit = Circuit(3)
    circuit.add(GateKind.H, 0)
    circuit.add(GateKind.RXX, (0, 2), angle=0.3)
    with pytest.raises(SimulationError):
        encode_circuits([circuit])


# ----------------------------------------------------------------------
# Backend.simulate_batch
# ----------------------------------------------------------------------
@pytest.fixture
def circuits(rng):
    ansatz = AnsatzConfig(num_features=5, interaction_distance=2, layers=2, gamma=0.7)
    X = rng.uniform(0.1, 1.9, size=(6, 5))
    return [build_feature_map_circuit(row, ansatz) for row in X]


def test_simulate_batch_counters_match_per_point(circuits):
    loop_backend = CpuBackend()
    for circuit in circuits:
        loop_backend.simulate(circuit)
    batch_backend = CpuBackend()
    result = batch_backend.simulate_batch(circuits)

    assert batch_backend.num_simulations == loop_backend.num_simulations
    assert result.num_circuits == len(circuits)
    assert result.num_structure_groups == 1
    # Modelled time is the sum of per-point device times (addition order
    # aside), so engine accounting is invariant under batching.
    assert result.modelled_time_s == pytest.approx(
        loop_backend.modelled_simulation_time_s, rel=1e-12
    )
    _assert_states_bit_identical(
        list(result.states), [loop_backend.simulate(c).state for c in circuits]
    )


def test_simulate_batch_rejects_initial_state(circuits):
    backend = CpuBackend()
    with pytest.raises(BackendError):
        backend.simulate_batch(circuits, initial_state=MPS.zero_state(5))


def test_simulate_batch_empty():
    result = CpuBackend().simulate_batch([])
    assert result.states == ()
    assert result.num_circuits == 0


def test_simulate_batch_track_memory_falls_back(circuits):
    backend = CpuBackend(SimulationConfig(track_memory=True))
    result = backend.simulate_batch(circuits)
    assert all(isinstance(s, InstrumentedMPS) for s in result.states)
    assert all(len(s.trace) == c.num_gates for s, c in zip(result.states, circuits))
