"""Gate stacks from the angle table, against per-row circuits.

``feature_map_gate_stacks`` builds every MPS step's ``(g, d, d)`` stack from
one ``(g, m)`` feature array: the gates of ``build_feature_map_circuit(X[i])``
in order, each run of consecutive two-qubit gates on one pair multiplied
into one step.  Row ``i`` of a step must be byte-equal to that product of
the circuit's matrices; encodes fed by the stacks must match per-point
simulation of the same steps (same ranks and shapes, equal states to
double-precision rounding) and the unmerged circuit to the same rounding.
"""

import itertools

import numpy as np
import pytest

from repro.backends import CpuBackend
from repro.circuits import (
    build_feature_map_circuit,
    feature_map_angle_table,
    feature_map_angles,
    feature_map_gate_stacks,
    feature_map_template,
)
from repro.config import AnsatzConfig, SimulationConfig
from repro.engine import KernelEngine
from repro.exceptions import CircuitError
from repro.mps import MPS, InstrumentedMPS, TruncationPolicy, encode_circuits

ANSATZE = [
    AnsatzConfig(num_features=m, interaction_distance=d, layers=layers, gamma=gamma)
    for m, d, layers, gamma in itertools.product((3, 5, 8), (1, 2, 3), (1, 2), (0.4, 1.3))
    if d < m
]


def _rows(ansatz, count=6, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 2.0, size=(count, ansatz.num_features))
    # Exact edge values: (1 - x) = 0 gives a signed-zero RXX angle.
    X[0, 0] = 1.0
    X[1, :] = 0.0
    X[2, -1] = 2.0
    return X


def _state_bytes(state):
    return [t.tobytes() for t in state.tensors]


def _circuit_steps(circuit):
    """``(targets, matrices)`` per MPS step: consecutive two-qubit gates on
    one pair form one step."""
    steps = []
    for op in circuit.operations:
        if op.is_two_qubit and steps and steps[-1][0] == op.qubits:
            steps[-1][1].append(op.matrix())
        else:
            steps.append((op.qubits, [op.matrix()]))
    return steps


@pytest.mark.parametrize("ansatz", ANSATZE, ids=repr)
def test_gate_stacks_are_byte_equal_to_circuit_matrices(ansatz):
    X = _rows(ansatz)
    stacks = feature_map_gate_stacks(X, ansatz)
    assert len(stacks) == len(X)
    for i, row in enumerate(X):
        steps = _circuit_steps(build_feature_map_circuit(row, ansatz))
        assert stacks.targets == tuple(qubits for qubits, _ in steps)
        for k, (_qubits, matrices) in enumerate(steps):
            product = matrices[0]
            for matrix in matrices[1:]:
                product = matrix @ product
            assert stacks.gates[k][i].tobytes() == product.tobytes()
    # Only routed (d > 1) ansatze have an RXX followed by a SWAP on its pair.
    merged = len(build_feature_map_circuit(X[0], ansatz).operations) - len(stacks.targets)
    assert (merged > 0) == (ansatz.interaction_distance > 1)


@pytest.mark.parametrize("ansatz", ANSATZE[:6], ids=repr)
def test_angle_table_rows_are_the_per_point_angles(ansatz):
    X = _rows(ansatz)
    table = feature_map_angle_table(X, ansatz)
    m = ansatz.num_features
    for i, row in enumerate(X):
        angles = feature_map_angles(row, ansatz)
        assert table[i, :m].tobytes() == angles.rz_angles.tobytes()
        assert table[i, m:].tolist() == list(angles.rxx_angles.values())


def test_angle_table_keeps_the_scalar_angle_arithmetic():
    """The table's elementwise operations and their order are the scalar ones."""
    ansatz = AnsatzConfig(num_features=5, interaction_distance=2, layers=1, gamma=0.73)
    X = _rows(ansatz, count=40, seed=11)
    table = feature_map_angle_table(X, ansatz)
    gamma, m = ansatz.gamma, ansatz.num_features
    edges = [(i, j) for i in range(m) for j in range(i + 1, min(i + 2, m - 1) + 1)]
    for row, angles in zip(X, table):
        expected = [float(2.0 * gamma * row[q]) for q in range(m)] + [
            float(gamma * gamma * np.pi * (1.0 - row[i]) * (1.0 - row[j]))
            for i, j in edges
        ]
        assert np.array(expected).tobytes() == angles.tobytes()


def test_template_is_built_once_per_ansatz():
    ansatz = ANSATZE[0]
    assert feature_map_template(ansatz) is feature_map_template(ansatz)


def test_angle_table_rejects_the_wrong_width():
    with pytest.raises(CircuitError):
        feature_map_angle_table(np.zeros((2, 4)), ANSATZE[0])


def _per_point(row, ansatz):
    """Per-point simulation of the steps the engine encodes ``row`` with."""
    return KernelEngine(ansatz).simulate_row(row).state


def _unmerged(row, ansatz):
    """Per-point ``MPS.apply_circuit`` of ``row``'s circuit, gate by gate."""
    state = MPS.zero_state(ansatz.num_features, TruncationPolicy())
    state.apply_circuit(build_feature_map_circuit(row, ansatz))
    return state


@pytest.mark.parametrize("ansatz", ANSATZE[::5], ids=repr)
def test_stack_encodes_match_per_point_simulation(ansatz, states_close):
    X = _rows(ansatz, count=5, seed=3)
    states = encode_circuits(feature_map_gate_stacks(X, ansatz))
    references = [_per_point(row, ansatz) for row in X]
    states_close(states, references)
    states_close(states, [_unmerged(row, ansatz) for row in X], same_steps=False)
    for state, reference in zip(states, references):
        assert [
            (r.kept, r.discarded, r.bond_dimension_before, r.bond_dimension_after)
            for r in state.truncation_records
        ] == [
            (r.kept, r.discarded, r.bond_dimension_before, r.bond_dimension_after)
            for r in reference.truncation_records
        ]
        assert all(r.discarded_weight <= 1e-16 for r in state.truncation_records)


def test_circuit_list_and_gate_stacks_encode_the_same_states(states_close):
    """The circuit list sweeps every gate, the stacks one step per merged
    run: one launch fewer per run, the same states to rounding."""
    ansatz = AnsatzConfig(num_features=6, interaction_distance=2, layers=2, gamma=0.9)
    X = _rows(ansatz, count=7, seed=5)
    by_stacks, by_circuits = CpuBackend(), CpuBackend()
    stacks = feature_map_gate_stacks(X, ansatz)
    circuits = [build_feature_map_circuit(row, ansatz) for row in X]
    a = by_stacks.simulate_batch(stacks)
    b = by_circuits.simulate_batch(circuits)
    states_close(list(a.states), list(b.states), same_steps=False)
    assert by_stacks.num_encode_stacked_launches == len(stacks.targets)
    assert by_circuits.num_encode_stacked_launches == circuits[0].num_gates
    # m = 6, d = 2: each RXX(i, i + 1) but the last meets the SWAP(i, i + 1)
    # that routes edge (i, i + 2), four runs per layer.
    assert circuits[0].num_gates - len(stacks.targets) == 4 * ansatz.layers


def test_track_memory_fallback_returns_per_point_states(states_close, monkeypatch):
    ansatz = AnsatzConfig(num_features=5, interaction_distance=2, layers=2, gamma=0.7)
    X = _rows(ansatz, count=4, seed=9)
    tracked = CpuBackend(SimulationConfig(track_memory=True))
    result = tracked.simulate_batch(feature_map_gate_stacks(X, ansatz))
    plain = CpuBackend().simulate_batch(feature_map_gate_stacks(X, ansatz))
    assert all(isinstance(s, InstrumentedMPS) for s in result.states)
    per_point = [_per_point(row, ansatz) for row in X]
    assert [_state_bytes(s) for s in result.states] == [
        _state_bytes(s) for s in per_point
    ]
    states_close(list(result.states), list(plain.states))
    states_close(
        list(result.states), [_unmerged(row, ansatz) for row in X], same_steps=False
    )
    steps = feature_map_gate_stacks(X[:1], ansatz).targets
    assert len(result.states[0].trace) == len(steps)
    assert tracked.num_simulations == len(X)

    monkeypatch.setattr("repro.engine.engine.ENCODE_CHUNK_ROWS", 3)
    engine = KernelEngine(ansatz, backend=CpuBackend(SimulationConfig(track_memory=True)))
    assert [_state_bytes(s) for s in engine.encode_rows(X)] == [
        _state_bytes(s) for s in per_point
    ]
