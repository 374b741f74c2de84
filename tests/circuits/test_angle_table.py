"""Gate stacks from the angle table, against per-row circuits.

``feature_map_gate_stacks`` builds every MPS step's ``(g, d, d)`` stack from
one ``(g, m)`` feature array: the gates of ``build_feature_map_circuit(X[i])``
in order, each run of consecutive two-qubit gates on one pair multiplied
into one step.  Row ``i`` of a step must be byte-equal to that product of
the circuit's matrices.  The layer encode of the same angle table
(``feature_map_batch``) must prepare the state per-point simulation of those
steps and of the unmerged circuit prepares, to double-precision rounding.
"""

import itertools

import numpy as np
import pytest

from repro.backends import CpuBackend
from repro.circuits import (
    build_feature_map_circuit,
    feature_map_angle_table,
    feature_map_angles,
    feature_map_batch,
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
    """The layer encode of the angle table prepares the state gate-by-gate
    simulation of the merged steps and of the unmerged circuit prepares,
    discarding no more than the cut-off at any bond."""
    X = _rows(ansatz, count=5, seed=3)
    states = encode_circuits(feature_map_batch(X, ansatz))
    states_close(states, [_per_point(row, ansatz) for row in X])
    states_close(states, [_unmerged(row, ansatz) for row in X])
    for state in states:
        assert all(r.discarded_weight <= 1e-16 for r in state.truncation_records)


def test_track_memory_fallback_returns_per_point_states(states_close):
    """An engine on a tracing backend encodes each row by its gate-by-gate
    steps, one trace sample per step."""
    ansatz = AnsatzConfig(num_features=5, interaction_distance=2, layers=2, gamma=0.7)
    X = _rows(ansatz, count=4, seed=9)
    tracked = KernelEngine(
        ansatz, backend=CpuBackend(SimulationConfig(track_memory=True))
    )
    states = tracked.encode_rows(X)
    assert all(isinstance(s, InstrumentedMPS) for s in states)
    per_point = [_per_point(row, ansatz) for row in X]
    assert [_state_bytes(s) for s in states] == [_state_bytes(s) for s in per_point]
    states_close(states, list(KernelEngine(ansatz).encode_rows(X)))
    steps = feature_map_gate_stacks(X[:1], ansatz).targets
    assert len(states[0].trace) == len(steps)
    assert tracked.backend.num_simulations == len(X)
