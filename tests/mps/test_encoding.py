"""Unit tests for the batched (stacked-sweep) circuit encoding path."""

import numpy as np
import pytest

from repro.backends import CpuBackend
from repro.circuits import (
    Circuit,
    GateKind,
    build_feature_map_circuit,
    feature_map_gate_stacks,
)
from repro.config import AnsatzConfig, SimulationConfig
from repro.engine import KernelEngine
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
from repro.mps.encoding import FIRST_CLAMP, bond_caps, clamp_ladder


def _reference_state(circuit, policy=None):
    state = MPS.zero_state(circuit.num_qubits, policy or TruncationPolicy())
    state.apply_circuit(circuit)
    return state


def _state_bytes(states):
    return [tuple(t.tobytes() for t in s.tensors) for s in states]


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
# Per-point simulation is the oracle, to rounding; a row alone is the
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
    circuits = [build_feature_map_circuit(row, ansatz) for row in X]
    batched = encode_circuits(circuits)
    states_close(batched, [_reference_state(c) for c in circuits])
    alone = [encode_circuits([c])[0] for c in circuits]
    assert _state_bytes(batched) == _state_bytes(alone)


def test_truncation_divergence_keeps_per_row_ranks(rng, states_close):
    # Features equal to 1.0 zero the RXX angles, so those members keep a
    # smaller bond dimension than their neighbours in the same padded
    # stack.
    ansatz = AnsatzConfig(num_features=6, interaction_distance=2, layers=2, gamma=0.8)
    X = rng.uniform(0.05, 1.95, size=(10, 6))
    X[2] = 1.0
    X[5] = 1.0
    X[7, :3] = 1.0
    circuits = [build_feature_map_circuit(row, ansatz) for row in X]
    batched = encode_circuits(circuits)
    assert len({s.max_bond_dimension for s in batched}) > 1
    states_close(batched, [_reference_state(c) for c in circuits])
    assert _state_bytes(batched) == _state_bytes(
        [encode_circuits([c])[0] for c in circuits]
    )


def test_padded_stack_keeps_each_rows_live_shapes():
    """One stacked launch per gate; each row keeps its own shapes.

    Rows 0 and 2 entangle (CNOT after H keeps rank 2) and row 1 does not
    (identity keeps rank 1), so the last single-qubit gate meets bond 2 on
    two rows and bond 1 on one, inside one padded stack.
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
    assert log.stacked_launches == 3
    assert [s.max_bond_dimension for s in states] == [2, 1, 2]
    assert [[t.shape for t in s.tensors] for s in states] == [
        [(1, 2, 2), (2, 2, 1)],
        [(1, 2, 1), (1, 2, 1)],
        [(1, 2, 2), (2, 2, 1)],
    ]


def test_mixed_structure_batch(rng, states_close):
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
    states_close(batched, [_reference_state(c) for c in circuits])


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


def test_empty_and_single_circuit(states_close):
    assert encode_circuits([]) == []
    ansatz = AnsatzConfig(num_features=4, interaction_distance=1, layers=1, gamma=0.5)
    circuit = build_feature_map_circuit(np.full(4, 0.7), ansatz)
    states_close(encode_circuits([circuit]), [_reference_state(circuit)])


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


def test_simulate_batch_counters_match_per_point(circuits, states_close):
    loop_backend = CpuBackend()
    for circuit in circuits:
        loop_backend.simulate(circuit)
    batch_backend = CpuBackend()
    result = batch_backend.simulate_batch(circuits)

    assert batch_backend.num_simulations == loop_backend.num_simulations
    assert result.num_circuits == len(circuits)
    assert result.num_structure_groups == 1
    states_close(list(result.states), [loop_backend.simulate(c).state for c in circuits])


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


def test_rows_that_outgrow_their_clamp_change_block(rng, states_close):
    """A row keeping more than ``FIRST_CLAMP`` carries on in a wider block,
    a row that fits stays, and every
    state is the one its row gets alone."""
    ansatz = AnsatzConfig(num_features=12, interaction_distance=3, layers=2, gamma=0.5)
    # All-ones features zero every entangling angle: a product state.
    X = np.vstack([rng.uniform(0.1, 1.9, size=(3, 12)), np.ones((1, 12))])
    stacks = feature_map_gate_stacks(X, ansatz)
    assert clamp_ladder(max(bond_caps(12, stacks.targets))) == [16, 32, 64]
    log = GateShapeLog()
    states = encode_circuits(stacks, log=log)
    widest = [max(r.kept for r in s.truncation_records) for s in states]
    assert [w > FIRST_CLAMP for w in widest] == [True, True, True, False]
    assert log.stacked_launches > len(stacks.targets)
    alone = [encode_circuits(feature_map_gate_stacks(row[None], ansatz))[0] for row in X]
    assert _state_bytes(states) == _state_bytes(alone)
    order = [3, 1, 0, 2]
    shuffled = encode_circuits(feature_map_gate_stacks(X[order], ansatz))
    assert _state_bytes(shuffled) == _state_bytes([alone[i] for i in order])
    states_close(
        states,
        [KernelEngine(ansatz).simulate_row(row).state for row in X],
    )
    states_close(
        states,
        [_reference_state(build_feature_map_circuit(row, ansatz)) for row in X],
        same_steps=False,
    )


def test_rows_arriving_at_a_block_its_rows_just_left(monkeypatch):
    """At one gate the clamp-4 block's only row moves up to clamp 8 while
    the other row arrives from clamp 2.  The emptied block keeps its old
    centre and masks, so the arrival must replace it, not join it: the
    arriving row's bytes are then the ones it gets alone."""
    from repro.mps import encoding

    monkeypatch.setattr(encoding, "FIRST_CLAMP", 2)
    ansatz = AnsatzConfig(num_features=6, interaction_distance=2, layers=2, gamma=0.9)
    rng = np.random.default_rng(0)
    X = rng.uniform(0.05, 1.95, size=(3, 6))
    X[rng.random(X.shape) < 0.3] = 1.0
    engine = KernelEngine(ansatz)
    pair = engine.encode_rows(X[[1, 2]])
    alone = [engine.encode_rows(X[[i]])[0] for i in (1, 2)]
    assert _state_bytes(pair) == _state_bytes(alone)


def test_truncation_records_are_built_only_when_read(monkeypatch):
    """A fit keeps each row's kept ranks, widths and weights as lists; the
    record objects appear on first read, equal to per-point simulation's."""
    from repro.mps import mps as mps_module

    built = []
    record = mps_module.TruncationRecord

    def counting_record(**fields):
        built.append(fields)
        return record(**fields)

    monkeypatch.setattr(mps_module, "TruncationRecord", counting_record)
    ansatz = AnsatzConfig(num_features=5, interaction_distance=2, layers=2, gamma=0.7)
    engine = KernelEngine(ansatz)
    X = np.random.default_rng(3).uniform(0.05, 1.95, size=(6, 5))
    states = engine.gram(X).states
    assert built == []
    copy = states[0].copy()
    records = states[0].truncation_records
    steps = states[0].two_qubit_gates_applied
    assert len(records) == steps and len(built) == steps
    assert states[0].truncation_records == records and len(built) == steps
    assert copy.truncation_records == records
    monkeypatch.undo()
    per_point = engine.simulate_row(X[0]).state.truncation_records
    assert [(r.kept, r.discarded, r.bond_dimension_before) for r in records] == [
        (r.kept, r.discarded, r.bond_dimension_before) for r in per_point
    ]
