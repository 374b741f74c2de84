"""The steps behind an encode, counted and checked.

Gate-by-gate simulation (``KernelEngine.simulate_row``) emits the feature
map's RXX gates in sorted-edge order, each run of two-qubit gates on one
pair merged into one step, so its canonical centre travels little.  The
engine's batched encode applies each layer as one diagonal MPO and
factorises only to compress, and only where a bond can narrow.  Both
counts, and the encode's operand shapes, are functions of the structure
(and the rows' kept ranks) alone, so they are pinned exactly: a change
that makes the per-point sweep zig-zag again, stops merging, brings back a
factorisation per gate or a QR that cannot narrow its bond in the encode,
or widens an operand shows here without any timing.  The relation below checks that
the encode still prepares the paper's state.
"""

from collections import Counter

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
from repro.mps.encoding import FIRST_CLAMP, _piece_bounds
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


def _recorded_factorisations(monkeypatch):
    """Every ``np.linalg`` QR and SVD from here on, on any thread, as
    ``(name, shape)``."""
    calls = []
    for name in ("svd", "qr"):
        original = getattr(np.linalg, name)

        def recorded(a, *args, _original=original, _name=name, **kwargs):
            calls.append((_name, a.shape))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return calls


def _rows_per_operand(calls):
    """Total rows per ``(name, per-row operand shape)``: the same whether
    the rows went through one stacked call or through the row pieces of a
    split encode (:data:`repro.mps.encoding.MIN_PIECE_ROWS`)."""
    rows = Counter()
    for name, (g, *shape) in calls:
        rows[name, tuple(shape)] += g
    return rows


def _structural_plan(num_qubits, states):
    """The QR and SVD operand shapes of one compressed layer on a stack of
    these rows, derived from the structure and the rows' kept ranks.

    With ``bound[b] = 2 ** min(b, m - b)``, folding both ends leaves a QR
    only where a bond narrows: at each right-half site ``b`` (but the last)
    an ``(2 bound[b], bound[b + 1])`` operand.  The SVD at site ``b`` sees
    ``(bound[b], 2 w[b + 1])``, ``w`` each row's padded width: its kept rank
    rounded up the rung ladder, capped by the bound and by the SVD width.
    Rows whose padded widths differ to the right of a bond take that SVD
    in separate stacks.
    """
    m, g = num_qubits, len(states)
    bound = [2 ** min(b, m - b) for b in range(m + 1)]
    kept = np.array([[t.shape[0] for t in s.tensors] + [1] for s in states])
    pad = np.ones_like(kept)
    for b in range(m - 1, 0, -1):
        rung = np.full(g, FIRST_CLAMP)
        while (rung < kept[:, b]).any():
            rung = np.where(rung < kept[:, b], 2 * rung, rung)
        pad[:, b] = np.minimum(np.minimum(bound[b], 2 * pad[:, b + 1]), rung)
    qrs = [("qr", (g, 2 * bound[b], bound[b + 1])) for b in range(m // 2, m - 1)]
    svds = []
    for b in range(m - 1, 0, -1):
        groups, sizes = np.unique(pad[:, b + 1 :], axis=0, return_counts=True)
        svds += [
            ("svd", (int(n), bound[b], 2 * int(w[0]))) for w, n in zip(groups, sizes)
        ]
    return qrs, sorted(svds), pad


def test_a_128_row_fit_factorises_only_where_a_bond_can_narrow(monkeypatch):
    """One 128-row chunk of the benchmark ansatz: its first layer is not
    compressed and its second is, by 3 QRs (the right-half sites; the ends
    fold through permutations) and one SVD sweep over the 7 bonds of 8
    qubits, every operand at its structural widths.  The Gram and SMO
    factorise nothing.  On a machine with more than one core the encode
    runs in row pieces, each making the same stacked calls on its own
    rows, so the rows per operand shape are compared.  A factorisation per
    gate would show as 38 SVD shapes, a QR per bond as 7 QR shapes, a right
    half at MPO-grown widths as wider operands, a call per row as more
    calls."""
    calls = _recorded_factorisations(monkeypatch)
    rng = np.random.default_rng(13)
    X = rng.uniform(-1.0, 1.0, size=(128, 8))
    y = np.arange(128) % 2
    model = QuantumKernelInferenceEngine(BENCHMARK_ANSATZ)
    model.fit(X, y)
    rows = _rows_per_operand(calls)
    assert {key: n for key, n in rows.items() if key[0] == "qr"} == {
        ("qr", (32, 8)): 128,
        ("qr", (16, 4)): 128,
        ("qr", (8, 2)): 128,
    }
    assert sorted(rows.values()) == [128] * 10
    pieces = np.diff(_piece_bounds(128, width=16)).tolist()  # bonds reach 16
    assert sorted(g for _name, (g, *_shape) in calls) == sorted(pieces * 10)
    monkeypatch.undo()
    states = KernelEngine(BENCHMARK_ANSATZ).encode_rows(X)
    qrs, svds, _pad = _structural_plan(8, states)
    assert rows == _rows_per_operand(qrs + svds)


def test_a_12_qubit_encode_on_two_rungs_follows_the_structure(monkeypatch):
    """12 qubits at interaction distance 3: its widest bond bound is 64, and
    these rows keep ranks on both sides of the first rung, so left of the
    bonds where their padded widths part they take the SVD sweep in
    separate stacks.  Eight rows are one piece on any machine."""
    ansatz = AnsatzConfig(num_features=12, interaction_distance=3, layers=2, gamma=0.5)
    X = np.random.default_rng(5).uniform(-0.2, 0.2, size=(8, 12))
    calls = _recorded_factorisations(monkeypatch)
    states = KernelEngine(ansatz).encode_rows(X)
    qrs, svds, pad = _structural_plan(12, states)
    assert set(pad.max(axis=1)) == {FIRST_CLAMP, 2 * FIRST_CLAMP}
    assert _rows_per_operand(calls) == _rows_per_operand(qrs + svds)
    assert len(qrs) == 5
    assert len([call for call in calls if call[0] == "svd"]) == len(svds) > 11


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
    states_close(states, paper_order)
