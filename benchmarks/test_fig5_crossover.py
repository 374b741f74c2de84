"""Figure 5 + Table I: CPU/GPU crossover as the interaction distance grows.

The paper fixes m = 100 qubits, r = 2 layers, gamma = 1.0 and sweeps the
interaction distance d, timing (a) the MPS simulation of a single circuit and
(b) a single inner product, on the ITensors/CPU backend and the
pytket-cutensornet/GPU backend.  It reports the median and quartiles of 8
simulation samples and 28 inner-product samples per distance, and Table I
lists the average largest bond dimension and the memory per MPS.

Here both backends execute identical NumPy numerics; the CPU-vs-GPU
comparison uses the calibrated device cost models (modelled seconds), which
is where the crossover claim (C1.2) lives.  The sweep is scaled down to
RESOURCE_QUBITS qubits and distances 1-4 so it finishes in seconds; the
qualitative shape -- runtime grows exponentially with d, the GPU curve starts
above the CPU curve and the gap closes as chi grows -- is the reproduction
target.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import CpuBackend, SimulatedGpuBackend
from repro.circuits import build_feature_map_circuit
from repro.config import AnsatzConfig, SimulationConfig
from repro.profiling import format_table, summarize_samples

from conftest import CROSSOVER_DISTANCES, RESOURCE_QUBITS, TIMING_SAMPLES


def _sweep_distance(distance: int, feature_rows: np.ndarray) -> dict:
    """Simulate TIMING_SAMPLES circuits + pairwise inner products on both backends."""
    ansatz = AnsatzConfig(
        num_features=RESOURCE_QUBITS,
        interaction_distance=distance,
        layers=2,
        gamma=1.0,
    )
    backends = {"cpu": CpuBackend(), "gpu": SimulatedGpuBackend()}
    sim_times = {name: [] for name in backends}
    ip_times = {name: [] for name in backends}
    chis = {name: [] for name in backends}
    memories = []

    states = {name: [] for name in backends}
    for row_idx in range(TIMING_SAMPLES):
        circuit = build_feature_map_circuit(feature_rows[row_idx], ansatz)
        for name, backend in backends.items():
            result = backend.simulate(circuit)
            sim_times[name].append(result.modelled_time_s)
            chis[name].append(result.max_bond_dimension)
            states[name].append(result.state)
            if name == "gpu":
                memories.append(result.memory_mib)

    for name, backend in backends.items():
        pool = states[name]
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                ip = backend.inner_product(pool[i], pool[j])
                ip_times[name].append(ip.modelled_time_s)

    return {
        "distance": distance,
        "sim_cpu": summarize_samples(sim_times["cpu"]),
        "sim_gpu": summarize_samples(sim_times["gpu"]),
        "ip_cpu": summarize_samples(ip_times["cpu"]),
        "ip_gpu": summarize_samples(ip_times["gpu"]),
        "avg_chi_cpu": float(np.mean(chis["cpu"])),
        "avg_chi_gpu": float(np.mean(chis["gpu"])),
        "memory_mib": float(np.mean(memories)),
    }


@pytest.fixture(scope="module")
def crossover_data(feature_rows):
    return [_sweep_distance(d, feature_rows) for d in CROSSOVER_DISTANCES]


def test_fig5_runtime_grows_with_interaction_distance(crossover_data):
    """Both primitives get more expensive as d (and therefore chi) grows."""
    cpu_sim = [row["sim_cpu"]["median"] for row in crossover_data]
    cpu_ip = [row["ip_cpu"]["median"] for row in crossover_data]
    assert all(np.diff(cpu_sim) > 0)
    assert all(np.diff(cpu_ip) >= 0)


def test_fig5_gpu_overhead_dominates_at_small_distance(crossover_data):
    """At d = 1 the CPU backend is faster on both primitives (CPU-favoured
    regime of Fig. 5)."""
    first = crossover_data[0]
    assert first["sim_gpu"]["median"] > first["sim_cpu"]["median"]
    assert first["ip_gpu"]["median"] > first["ip_cpu"]["median"]


def test_fig5_gpu_gap_closes_as_distance_grows(crossover_data):
    """The GPU/CPU runtime ratio falls monotonically towards (and eventually
    below) 1 as the bond dimension grows -- the crossover mechanism."""
    ratios = [
        row["ip_gpu"]["median"] / row["ip_cpu"]["median"] for row in crossover_data
    ]
    assert all(np.diff(ratios) < 0)
    assert ratios[-1] < ratios[0] / 2


def test_fig5_gpu_wins_beyond_the_crossover_bond_dimension():
    """Directly exercise the crossover: at the paper's chi ~ 320 the GPU
    model is faster for the inner product, and dramatically so at larger chi."""
    from repro.backends import CPU_COST_MODEL, GPU_COST_MODEL

    m = 100  # the paper's qubit count; pure cost-model evaluation is free
    assert GPU_COST_MODEL.inner_product_time(m, 320) < CPU_COST_MODEL.inner_product_time(
        m, 320
    )
    assert GPU_COST_MODEL.inner_product_time(m, 1024) < 0.25 * CPU_COST_MODEL.inner_product_time(
        m, 1024
    )
    # ... while at chi = 10 the CPU still wins.
    assert GPU_COST_MODEL.inner_product_time(m, 10) > CPU_COST_MODEL.inner_product_time(
        m, 10
    )


def test_fig5_nystroem_cross_sweep_crossover(crossover_data):
    """Extend the crossover study to the Nystrom ``K_nm`` block sweep.

    :func:`preferred_cross_model` picks a device for the stacked cross
    sweep by comparing ``batched_inner_product_time`` across devices.
    Using the bond dimensions actually measured in the sweep: the GPU/CPU
    ratio of the modelled *block* time falls monotonically as d grows (the
    same mechanism as the per-pair Fig. 5 ratio), and because the stack
    amortises the GPU's launch overhead, the block crossover arrives at a
    smaller chi than the per-pair one.
    """
    from repro.backends import CPU_COST_MODEL, GPU_COST_MODEL, preferred_cross_model

    n_rows, n_cols = 256, 64  # a Nystrom-fit-scale K_nm block
    pairs = n_rows * n_cols
    ratios = []
    for row in crossover_data:
        chi = int(round(row["avg_chi_cpu"]))
        gpu_t = GPU_COST_MODEL.batched_inner_product_time(pairs, RESOURCE_QUBITS, chi)
        cpu_t = CPU_COST_MODEL.batched_inner_product_time(pairs, RESOURCE_QUBITS, chi)
        ratios.append(gpu_t / cpu_t)
    assert all(np.diff(ratios) < 0)
    # At the largest swept distance the stacked sweep already favours the
    # GPU on the cost models alone.
    largest_chi = int(round(crossover_data[-1]["avg_chi_cpu"]))
    assert (
        preferred_cross_model(pairs, RESOURCE_QUBITS, largest_chi) is GPU_COST_MODEL
    )
    # ... while per-pair dispatch at the same chi still favours the CPU:
    # batching moves the crossover, which is why it must be modelled on the
    # stacked entries rather than the per-pair ones.
    assert GPU_COST_MODEL.inner_product_time(
        RESOURCE_QUBITS, largest_chi
    ) > CPU_COST_MODEL.inner_product_time(RESOURCE_QUBITS, largest_chi)


def test_table1_bond_dimension_backend_agreement_and_memory(crossover_data):
    """Table I: both backends report identical bond dimensions, and both chi
    and the per-MPS memory grow with the interaction distance."""
    rows = []
    for row in crossover_data:
        assert row["avg_chi_cpu"] == pytest.approx(row["avg_chi_gpu"])
        rows.append(
            {
                "interaction distance": row["distance"],
                "avg largest chi (GPU)": row["avg_chi_gpu"],
                "avg largest chi (CPU)": row["avg_chi_cpu"],
                "memory per MPS (MiB)": row["memory_mib"],
            }
        )
    chis = [r["avg largest chi (GPU)"] for r in rows]
    mems = [r["memory per MPS (MiB)"] for r in rows]
    assert all(np.diff(chis) > 0)
    assert all(np.diff(mems) > 0)
    print()
    print(format_table(rows, title="Table I (reduced scale)", precision=3))


def test_fig5_print_series(crossover_data):
    """Emit the Figure 5 series (median / quartiles per distance, per backend)."""
    rows = []
    for row in crossover_data:
        rows.append(
            {
                "d": row["distance"],
                "sim CPU median (s)": row["sim_cpu"]["median"],
                "sim GPU median (s)": row["sim_gpu"]["median"],
                "IP CPU median (s)": row["ip_cpu"]["median"],
                "IP GPU median (s)": row["ip_gpu"]["median"],
            }
        )
    print()
    print(format_table(rows, title="Figure 5 series (reduced scale)", precision=6))


def test_benchmark_single_circuit_simulation(benchmark, feature_rows):
    """pytest-benchmark target: one MPS simulation at an intermediate distance.

    The second-largest swept distance keeps one timed round below a couple of
    seconds while still exercising a non-trivial bond dimension.
    """
    ansatz = AnsatzConfig(
        num_features=RESOURCE_QUBITS,
        interaction_distance=CROSSOVER_DISTANCES[-2],
        layers=2,
        gamma=1.0,
    )
    circuit = build_feature_map_circuit(feature_rows[0], ansatz)
    backend = CpuBackend(SimulationConfig())
    benchmark(lambda: backend.simulate(circuit))


def test_benchmark_single_inner_product(benchmark, feature_rows):
    """pytest-benchmark target: one MPS inner product at an intermediate distance."""
    ansatz = AnsatzConfig(
        num_features=RESOURCE_QUBITS,
        interaction_distance=CROSSOVER_DISTANCES[-2],
        layers=2,
        gamma=1.0,
    )
    backend = CpuBackend()
    a = backend.simulate(build_feature_map_circuit(feature_rows[0], ansatz)).state
    b = backend.simulate(build_feature_map_circuit(feature_rows[1], ansatz)).state
    benchmark(lambda: backend.inner_product(a, b))
