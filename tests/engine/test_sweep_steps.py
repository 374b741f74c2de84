"""The MPS steps the engine encodes with, counted and checked.

The feature map's RXX gates are emitted in sorted-edge order and each run
of two-qubit gates on one pair is one step, so the canonical centre of the
stacked sweep travels little and each merged run costs one SVD.  These
counts are functions of the gate targets alone, so they are pinned exactly:
a change that makes the sweep zig-zag again, or stops merging, shows here
without any timing.  The relation below checks that the reordered, merged
steps still prepare the paper's state.
"""

import numpy as np
import pytest

from repro.circuits import (
    build_feature_map_circuit,
    feature_map_gate_stacks,
    feature_map_template,
)
from repro.config import AnsatzConfig
from repro.core import QuantumKernelInferenceEngine
from repro.engine import KernelEngine
from repro.mps import MPS
from repro.statevector import StatevectorSimulator

#: The ansatz of the ``train`` and ``serve_warm`` benchmarks
#: (``perfbench/workloads.py``).
BENCHMARK_ANSATZ = AnsatzConfig(num_features=8, interaction_distance=2, layers=2, gamma=0.5)


def _two_qubit_steps_and_centre_moves(targets):
    """Two-qubit steps and the single-site centre moves the sweep makes
    before them: the centre starts at site 0 and ends each split on its
    right site."""
    steps = moves = center = 0
    for qubits in targets:
        if len(qubits) == 2:
            steps += 1
            moves += abs(center - qubits[0])
            center = qubits[0] + 1
    return steps, moves


def test_benchmark_ansatz_step_list():
    X = np.full((1, 8), 0.5)
    merged = feature_map_gate_stacks(X, BENCHMARK_ANSATZ).targets
    assert _two_qubit_steps_and_centre_moves(merged) == (38, 31)
    # The same gates unmerged, and in the paper's depth order.
    sorted_gates = [op.qubits for op in feature_map_template(BENCHMARK_ANSATZ)]
    depth_order = [
        op.qubits for op in feature_map_template(BENCHMARK_ANSATZ, scheduled=True)
    ]
    assert _two_qubit_steps_and_centre_moves(sorted_gates) == (50, 43)
    assert _two_qubit_steps_and_centre_moves(depth_order) == (50, 74)


def test_a_128_row_fit_makes_276_stacked_factorisations(monkeypatch):
    """Four 32-row chunks, each one block of 38 SVDs and 31 QR centre moves;
    the Gram and SMO factorise nothing."""
    calls = []
    for name in ("svd", "qr"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    rng = np.random.default_rng(13)
    X = rng.uniform(-1.0, 1.0, size=(128, 8))
    y = np.arange(128) % 2
    model = QuantumKernelInferenceEngine(BENCHMARK_ANSATZ)
    model.fit(X, y)
    assert (calls.count("svd"), calls.count("qr")) == (4 * 38, 4 * 31)
    assert len(calls) == 276


@pytest.mark.parametrize("distance", [1, 2, 3])
def test_engine_states_prepare_the_papers_state(distance, states_close):
    """Every engine state is within 1e-12 of the dense statevector of the
    row's circuit and of per-point MPS simulation of the footnote-3 (depth
    order) circuit."""
    ansatz = AnsatzConfig(num_features=6, interaction_distance=distance, layers=2, gamma=0.8)
    rng = np.random.default_rng(distance)
    X = rng.uniform(0.05, 1.95, size=(5, 6))
    X[0, 2] = 1.0  # a vanishing entangler
    states = KernelEngine(ansatz).encode_rows(X)
    paper_order = []
    for row, state in zip(X, states):
        circuit = build_feature_map_circuit(row, ansatz, scheduled=True)
        dense = StatevectorSimulator(ansatz.num_features)
        dense.apply_circuit(circuit)
        vector = dense.statevector.ravel()
        overlap = abs(np.vdot(vector, state.to_statevector())) ** 2
        assert 1.0 - overlap <= 1e-12
        reference = MPS.zero_state(ansatz.num_features)
        reference.apply_circuit(circuit)
        paper_order.append(reference)
    states_close(states, paper_order, same_steps=False)
