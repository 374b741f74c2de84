"""Figure 6: memory required to store the MPS throughout a simulation.

The paper simulates two circuit families (d = 6 and d = 12; m = 100 qubits,
r = 2, gamma = 1.0) and plots the memory footprint of the MPS after every
gate, showing (a) the exponential growth with the number of two-qubit gates
applied and (b) the saw-tooth drops produced by SVD truncation, with the
larger interaction distance consuming far more memory.

Here the two families are d = 1 (small) and the largest swept distance
(large) on RESOURCE_QUBITS qubits; the trace is recorded with
:class:`repro.mps.InstrumentedMPS` through the ``track_memory`` backend
option, exactly the mechanism a full-scale run would use.  Circuits are
built in the paper's footnote-3 depth order (``scheduled=True``), so the
trace follows the gate sequence the paper plots.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import CpuBackend
from repro.circuits import build_feature_map_circuit
from repro.config import AnsatzConfig, SimulationConfig
from repro.mps import InstrumentedMPS
from repro.profiling import format_table

from conftest import CROSSOVER_DISTANCES, RESOURCE_QUBITS, TIMING_SAMPLES

SMALL_D = 1
LARGE_D = CROSSOVER_DISTANCES[-2]


def _trace_family(distance: int, feature_rows: np.ndarray):
    """Memory traces of TIMING_SAMPLES circuits with the given distance."""
    ansatz = AnsatzConfig(
        num_features=RESOURCE_QUBITS,
        interaction_distance=distance,
        layers=2,
        gamma=1.0,
    )
    backend = CpuBackend(SimulationConfig(track_memory=True))
    traces = []
    for row in feature_rows[:TIMING_SAMPLES]:
        circuit = build_feature_map_circuit(row, ansatz, scheduled=True)
        result = backend.simulate(circuit)
        assert isinstance(result.state, InstrumentedMPS)
        traces.append(result.state.trace)
    return traces


@pytest.fixture(scope="module")
def memory_traces(feature_rows):
    return {
        SMALL_D: _trace_family(SMALL_D, feature_rows),
        LARGE_D: _trace_family(LARGE_D, feature_rows),
    }


def test_fig6_traces_cover_every_gate(memory_traces):
    for traces in memory_traces.values():
        for trace in traces:
            progress = trace.progress_axis()
            assert progress[-1] == pytest.approx(100.0)
            assert len(trace) == len(trace.memory_axis_mib())


def test_fig6_memory_grows_with_gates_applied(memory_traces):
    """Within the larger-d family, the later part of the simulation holds
    more memory than the beginning (exponential build-up of entanglement)."""
    for trace in memory_traces[LARGE_D]:
        memory = trace.memory_axis_mib()
        first_quarter = memory[: len(memory) // 4].mean()
        last_quarter = memory[-len(memory) // 4 :].mean()
        assert last_quarter > first_quarter


def test_fig6_larger_distance_needs_more_memory(memory_traces):
    """The d = large family peaks well above the d = 1 family (Fig. 6's gap)."""
    peak_small = max(t.peak_memory_bytes for t in memory_traces[SMALL_D])
    peak_large = max(t.peak_memory_bytes for t in memory_traces[LARGE_D])
    assert peak_large > 2 * peak_small
    chi_small = max(t.peak_bond_dimension for t in memory_traces[SMALL_D])
    chi_large = max(t.peak_bond_dimension for t in memory_traces[LARGE_D])
    assert chi_large > chi_small


def test_fig6_truncation_produces_memory_drops(memory_traces):
    """SVD truncation causes visible decreases in the memory trace of the
    entangling family (the saw-tooth of Fig. 6)."""
    drops = 0
    for trace in memory_traces[LARGE_D]:
        memory = trace.memory_axis_mib()
        drops += int(np.sum(np.diff(memory) < 0))
    assert drops > 0


def test_fig6_memory_far_below_statevector(memory_traces):
    """Contribution C1.1: the MPS memory stays minuscule next to the
    2^m * 16-byte statevector the dense simulator would need."""
    statevector_bytes = 16.0 * (2.0**RESOURCE_QUBITS)
    for traces in memory_traces.values():
        for trace in traces:
            assert trace.peak_memory_bytes < statevector_bytes / 100.0


def test_fig6_print_series(memory_traces):
    """Emit a compact view of the two mean memory envelopes."""
    rows = []
    for d, traces in sorted(memory_traces.items()):
        # Resample each trace to a common grid and average.
        grid = 10
        resampled = np.vstack(
            [t.resample(grid).memory_axis_mib() for t in traces]
        )
        mean = resampled.mean(axis=0)
        for pct, mem in zip(np.linspace(10, 100, grid), mean):
            rows.append({"d": d, "progress (%)": pct, "mean memory (MiB)": mem})
    print()
    print(format_table(rows, title="Figure 6 series (reduced scale)", precision=5))


def test_benchmark_instrumented_simulation(benchmark, feature_rows):
    """pytest-benchmark target: instrumented simulation at distance 2."""
    ansatz = AnsatzConfig(
        num_features=RESOURCE_QUBITS,
        interaction_distance=2,
        layers=2,
        gamma=1.0,
    )
    circuit = build_feature_map_circuit(feature_rows[0], ansatz, scheduled=True)
    backend = CpuBackend(SimulationConfig(track_memory=True))
    benchmark(lambda: backend.simulate(circuit))
