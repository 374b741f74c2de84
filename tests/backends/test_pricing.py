"""Only the solo primitives the paper times price modelled device time.

``Backend.simulate``, ``Backend.inner_product`` and
``KernelEngine.simulate_row`` price their run with the backend's cost model,
to the model's own floats.  The batched paths that training and serving run
(stacked encodes, the Gram, cross and kernel-row block sweeps) only count
and time, so a cost model that refuses to price is never called by them.
"""

import dataclasses

import numpy as np

from repro.approx import (
    LinearSVC,
    NystroemConfig,
    NystroemFeatureMap,
    StreamingNystroemClassifier,
)
from repro.backends import CPU_COST_MODEL, CpuBackend, DeviceCostModel
from repro.circuits import build_feature_map_circuit, feature_map_gate_stacks
from repro.config import AnsatzConfig
from repro.core import QuantumKernelInferenceEngine
from repro.engine import EngineConfig, KernelEngine
from repro.mps import MPS

ANSATZ = AnsatzConfig(num_features=5, interaction_distance=2, layers=2, gamma=0.7)


class _RefusingModel(DeviceCostModel):
    """CPU constants, but every ``*_time`` method fails the test."""


def _refuse(self, *args):
    raise AssertionError("a batched path priced modelled device time")


for _name in dir(DeviceCostModel):
    if _name.endswith("_time"):
        setattr(_RefusingModel, _name, _refuse)

REFUSING = _RefusingModel(
    **{f.name: getattr(CPU_COST_MODEL, f.name) for f in dataclasses.fields(CPU_COST_MODEL)}
)


def _refusing_backend():
    return CpuBackend(cost_model=REFUSING)


def test_training_and_serving_paths_never_call_the_cost_model(rng):
    X = rng.uniform(0.1, 1.9, size=(12, ANSATZ.num_features))
    y = np.arange(len(X)) % 2

    engine = KernelEngine(ANSATZ, backend=_refusing_backend())
    states = engine.encode_rows(X[:6])
    gram = engine.gram(X[:6])
    assert engine.cross(X[6:9], states).num_inner_products == 18
    assert engine.kernel_rows(X[9:], states, block=gram.block).num_simulations == 3

    exact = QuantumKernelInferenceEngine(ANSATZ, backend=_refusing_backend())
    exact.fit(X, y)

    cached = KernelEngine(
        ANSATZ, backend=_refusing_backend(), config=EngineConfig(use_cache=True)
    )
    feature_map = NystroemFeatureMap(cached, NystroemConfig(num_landmarks=4, seed=0))
    model = LinearSVC(C=1.0).fit(feature_map.fit_transform(X), y)
    classifier = StreamingNystroemClassifier(feature_map, model)
    fresh = rng.uniform(0.1, 1.9, size=(3, ANSATZ.num_features))
    cold = classifier.classify(fresh)
    sims = cached.backend.num_simulations
    warm = classifier.classify(fresh)  # every row is in the store now
    assert cached.backend.num_simulations == sims
    assert warm.decision_values.tobytes() == cold.decision_values.tobytes()


def _priced(backend, num_qubits, steps):
    """The cost model's seconds for ``steps``, summed gate by gate in order."""
    state = MPS.zero_state(num_qubits, backend._policy())
    total = 0.0
    for qubits, matrix in steps:
        q = qubits[0]
        left, right = state.tensors[q].shape[0], state.tensors[q].shape[2]
        if len(qubits) == 1:
            total += CPU_COST_MODEL.single_qubit_gate_time(left, right)
            state.apply_single_qubit_gate(q, matrix)
        else:
            far = state.tensors[q + 1].shape[2]
            total += CPU_COST_MODEL.two_qubit_gate_time(left, right, far)
            state.apply_two_qubit_gate(q, matrix)
    return total


def test_solo_primitives_price_to_the_models_floats(rng):
    row = rng.uniform(0.1, 1.9, size=ANSATZ.num_features)
    backend = CpuBackend()

    circuit = build_feature_map_circuit(row, ANSATZ)
    solo = backend.simulate(circuit)
    steps = ((op.qubits, op.matrix()) for op in circuit.operations)
    assert solo.modelled_time_s == _priced(backend, circuit.num_qubits, steps)

    engine = KernelEngine(ANSATZ, backend=backend)
    per_point = engine.simulate_row(row)
    stacks = feature_map_gate_stacks(row[None, :], ANSATZ)
    assert per_point.modelled_time_s == _priced(backend, stacks.num_qubits, stacks.row(0))

    a, b = solo.state, per_point.state
    chi = max(a.max_bond_dimension, b.max_bond_dimension)
    assert backend.inner_product(a, b).modelled_time_s == CPU_COST_MODEL.inner_product_time(
        ANSATZ.num_features, chi
    )
