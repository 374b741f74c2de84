"""Unit tests for the CPU / simulated-GPU backends."""

import pytest

from repro.backends import (
    Backend,
    BackendResult,
    CpuBackend,
    SimulatedGpuBackend,
)
from repro.circuits import Circuit, build_feature_map_circuit
from repro.config import AnsatzConfig, SimulationConfig
from repro.exceptions import BackendError
from repro.mps import MPS, InstrumentedMPS


@pytest.fixture
def circuit(rng):
    cfg = AnsatzConfig(num_features=5, interaction_distance=2, layers=2, gamma=0.9)
    x = rng.uniform(0.1, 1.9, size=5)
    return build_feature_map_circuit(x, cfg)


def test_simulate_returns_backend_result(circuit):
    backend = CpuBackend()
    result = backend.simulate(circuit)
    assert isinstance(result, BackendResult)
    assert result.state.num_qubits == 5
    assert result.max_bond_dimension == result.state.max_bond_dimension
    assert result.memory_bytes == result.state.memory_bytes
    assert result.memory_mib == pytest.approx(result.memory_bytes / 2**20)
    assert result.num_gates == circuit.num_gates
    assert result.num_two_qubit_gates == circuit.num_two_qubit_gates
    assert result.modelled_time_s > 0
    assert result.wall_time_s > 0


def test_backends_produce_identical_states(circuit):
    cpu_state = CpuBackend().simulate(circuit).state
    gpu_state = SimulatedGpuBackend().simulate(circuit).state
    assert cpu_state.fidelity(gpu_state) == pytest.approx(1.0, abs=1e-12)
    assert cpu_state.bond_dimensions == gpu_state.bond_dimensions


def test_gpu_modelled_time_higher_for_small_circuits(circuit):
    """Small bond dimensions are the CPU-favoured regime (Fig. 5)."""
    cpu_time = CpuBackend().simulate(circuit).modelled_time_s
    gpu_time = SimulatedGpuBackend().simulate(circuit).modelled_time_s
    assert gpu_time > cpu_time


def test_inner_product_and_counters(circuit):
    backend = CpuBackend()
    a = backend.simulate(circuit).state
    b = backend.simulate(circuit).state
    ip = backend.inner_product(a, b)
    assert abs(ip.value) == pytest.approx(1.0)
    assert ip.modelled_time_s > 0
    assert ip.bond_dimension == max(a.max_bond_dimension, b.max_bond_dimension)

    summary = backend.lifetime_summary()
    assert summary["num_simulations"] == 2
    assert summary["num_inner_products"] == 1
    assert summary["wall_simulation_time_s"] > 0


def test_unrouted_circuit_rejected():
    c = Circuit(4)
    c.add("RXX", (0, 3), angle=0.3)
    with pytest.raises(BackendError):
        CpuBackend().simulate(c)


def test_initial_state_override(circuit):
    backend = CpuBackend()
    init = MPS.plus_state(5)
    result = backend.simulate(circuit, initial_state=init)
    # Initial state is copied, not mutated.
    assert init.max_bond_dimension == 1
    assert result.state is not init


def test_track_memory_uses_instrumented_mps(circuit):
    backend = CpuBackend(SimulationConfig(track_memory=True))
    result = backend.simulate(circuit)
    assert isinstance(result.state, InstrumentedMPS)
    assert len(result.state.trace) == circuit.num_gates


def test_backend_requires_cost_model():
    class BadBackend(Backend):
        @property
        def name(self):
            return "bad"

    with pytest.raises(BackendError):
        BadBackend(cost_model=None)


def test_truncation_config_propagates(circuit):
    backend = CpuBackend(SimulationConfig(truncation_cutoff=1e-16))
    result = backend.simulate(circuit)
    assert result.state.cumulative_discarded_weight < 1e-12
