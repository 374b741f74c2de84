"""Metamorphic relations of mixed-structure batched encoding.

A batch may mix circuits of *different* structures; :func:`encode_circuits`
runs one stacked sweep per structure group.  However the batch is composed or
interleaved with cache hits, every returned state is byte-identical to its
circuit encoded alone, and within rounding of per-point
:meth:`MPS.apply_circuit` simulation.
"""

from repro.circuits import build_feature_map_circuit
from repro.config import AnsatzConfig
from repro.engine import EngineConfig, KernelEngine
from repro.mps import MPS, TruncationPolicy, encode_circuits
from repro.mps.encoding import GateShapeLog

# A family of related structures: the layers=1 circuit's gate sequence is a
# strict prefix of the layers=2 circuit's, and the d=2 schedule shares the
# d=1 schedule's opening H + RZ + nearest-neighbour block before diverging.
BASE = dict(num_features=5, gamma=0.8)
ANSATZE = [
    AnsatzConfig(interaction_distance=1, layers=1, **BASE),
    AnsatzConfig(interaction_distance=1, layers=2, **BASE),
    AnsatzConfig(interaction_distance=2, layers=1, **BASE),
]


def _mixed_circuits(rng, counts=(3, 3, 3)):
    circuits = []
    for ansatz, count in zip(ANSATZE, counts):
        for row in rng.uniform(0.05, 1.95, size=(count, 5)):
            circuits.append(build_feature_map_circuit(row, ansatz))
    return circuits


def _reference_states(circuits):
    out = []
    for circuit in circuits:
        state = MPS.zero_state(circuit.num_qubits, TruncationPolicy())
        state.apply_circuit(circuit)
        out.append(state)
    return out


def _blobs(states):
    return [tuple(t.tobytes() for t in s.tensors) for s in states]


def test_mixed_structure_batch_matches_per_point(rng, states_close):
    circuits = _mixed_circuits(rng)
    log = GateShapeLog()
    batched = encode_circuits(circuits, log=log)
    assert log.structure_groups == 3
    states_close(batched, _reference_states(circuits))
    assert _blobs(batched) == _blobs([encode_circuits([c])[0] for c in circuits])


def test_cache_occupancy_does_not_change_tree_states(rng):
    """Warm store entries only shrink the encoded subset; the remaining cold
    rows still encode in one stacked sweep and match the cold encode bit for
    bit."""
    ansatz = ANSATZE[1]
    X = rng.uniform(0.05, 1.95, size=(8, 5))
    cold = KernelEngine(ansatz, config=EngineConfig(use_cache=True))
    cold_states = _blobs(cold.encode_rows(X))

    warm = KernelEngine(ansatz, config=EngineConfig(use_cache=True))
    warm.encode_rows(X[2:5])
    before = warm.backend.num_simulations
    warm_states = _blobs(warm.encode_rows(X))
    assert warm_states == cold_states
    assert warm.backend.num_simulations - before == 5
