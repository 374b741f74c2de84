"""Unit tests for the device cost models."""

import pytest

from repro.backends import (
    CPU_COST_MODEL,
    GPU_COST_MODEL,
    DeviceCostModel,
    preferred_cross_model,
)
from repro.exceptions import ConfigurationError


def test_default_models_are_valid():
    assert CPU_COST_MODEL.name.startswith("cpu")
    assert GPU_COST_MODEL.name.startswith("gpu")
    assert GPU_COST_MODEL.gate_overhead_s > CPU_COST_MODEL.gate_overhead_s
    assert GPU_COST_MODEL.contraction_gflops > CPU_COST_MODEL.contraction_gflops


def test_invalid_models_rejected():
    with pytest.raises(ConfigurationError):
        DeviceCostModel("bad", 0.0, 0.0, contraction_gflops=0.0, svd_gflops=1.0)
    with pytest.raises(ConfigurationError):
        DeviceCostModel("bad", -1.0, 0.0, contraction_gflops=1.0, svd_gflops=1.0)


def test_times_increase_with_bond_dimension():
    for model in (CPU_COST_MODEL, GPU_COST_MODEL):
        assert model.two_qubit_gate_time(2, 2, 2) < model.two_qubit_gate_time(64, 64, 64)
        assert model.inner_product_time(100, 2) < model.inner_product_time(100, 256)
        assert model.single_qubit_gate_time(2, 2) < model.single_qubit_gate_time(128, 128)


def test_times_scale_with_qubit_count():
    assert CPU_COST_MODEL.inner_product_time(50, 16) < CPU_COST_MODEL.inner_product_time(
        200, 16
    )


def test_gpu_slower_at_small_chi_faster_at_large_chi():
    """The CPU/GPU crossover of Figure 5 exists in the cost models."""
    small_cpu = CPU_COST_MODEL.two_qubit_gate_time(4, 4, 4)
    small_gpu = GPU_COST_MODEL.two_qubit_gate_time(4, 4, 4)
    assert small_gpu > small_cpu  # overhead dominates tiny tensors

    large_cpu = CPU_COST_MODEL.two_qubit_gate_time(1024, 1024, 1024)
    large_gpu = GPU_COST_MODEL.two_qubit_gate_time(1024, 1024, 1024)
    assert large_gpu < large_cpu  # throughput dominates large tensors

    ip_small_cpu = CPU_COST_MODEL.inner_product_time(100, 8)
    ip_small_gpu = GPU_COST_MODEL.inner_product_time(100, 8)
    assert ip_small_gpu > ip_small_cpu
    ip_large_cpu = CPU_COST_MODEL.inner_product_time(100, 512)
    ip_large_gpu = GPU_COST_MODEL.inner_product_time(100, 512)
    assert ip_large_gpu < ip_large_cpu


def test_crossover_chi_is_a_few_hundred():
    """Find the chi where the GPU inner product overtakes the CPU; the paper
    reports chi ~ 320 -- we only require the same order of magnitude."""
    crossover = None
    for chi in range(2, 4096, 2):
        if GPU_COST_MODEL.inner_product_time(100, chi) < CPU_COST_MODEL.inner_product_time(
            100, chi
        ):
            crossover = chi
            break
    assert crossover is not None
    assert 50 <= crossover <= 1500


def test_flop_counts_positive_and_monotone():
    assert DeviceCostModel.single_qubit_gate_flops(1, 1) > 0
    assert DeviceCostModel.two_qubit_gate_flops(1, 1, 1) > 0
    assert DeviceCostModel.inner_product_flops(10, 1) > 0
    assert DeviceCostModel.inner_product_flops(10, 8) < DeviceCostModel.inner_product_flops(
        10, 16
    )


# ----------------------------------------------------------------------
# Stacked cross-sweep entries
# ----------------------------------------------------------------------
def test_batched_inner_product_time_equals_per_point_at_batch_one():
    """The stacked model degenerates to the per-point model for one pair."""
    for model in (CPU_COST_MODEL, GPU_COST_MODEL):
        assert model.batched_inner_product_time(1, 24, 16) == pytest.approx(
            model.inner_product_time(24, 16)
        )


def test_batched_inner_product_time_amortises_launch_overhead():
    """Launches are charged once per stack, so the stacked time is strictly
    below batch x per-point and strictly above the pure flop time."""
    for model in (CPU_COST_MODEL, GPU_COST_MODEL):
        batch, nq, chi = 64, 24, 16
        stacked = model.batched_inner_product_time(batch, nq, chi)
        per_point = batch * model.inner_product_time(nq, chi)
        flops_only = model.batched_inner_product_flops(batch, nq, chi) / (
            model.contraction_gflops * 1e9
        )
        assert flops_only < stacked < per_point


def test_batched_inner_product_flops_scale_linearly():
    assert DeviceCostModel.batched_inner_product_flops(
        8, 24, 16
    ) == 8 * DeviceCostModel.inner_product_flops(24, 16)


def test_cross_sweep_time_is_the_full_block_as_one_stack():
    for model in (CPU_COST_MODEL, GPU_COST_MODEL):
        assert model.cross_sweep_time(6, 7, 24, 16) == pytest.approx(
            model.batched_inner_product_time(42, 24, 16)
        )


def test_preferred_cross_model_picks_cpu_then_gpu():
    """The modelled Fig. 5 dispatch: small-chi blocks stay on the CPU, a
    large stacked sweep's flops overtake the GPU's launch overhead."""
    pairs = 32 * 64  # a serving-scale landmark block
    assert preferred_cross_model(pairs, 24, 4) is CPU_COST_MODEL
    assert preferred_cross_model(pairs, 24, 256) is GPU_COST_MODEL
    # The crossover chi for a block this size is far below the per-point
    # chi ~ 320: batching amortises the GPU's launch cost over the stack.
    block_crossover = next(
        chi
        for chi in range(2, 1024)
        if GPU_COST_MODEL.batched_inner_product_time(pairs, 24, chi)
        < CPU_COST_MODEL.batched_inner_product_time(pairs, 24, chi)
    )
    per_point_crossover = next(
        chi
        for chi in range(2, 4096)
        if GPU_COST_MODEL.inner_product_time(24, chi)
        < CPU_COST_MODEL.inner_product_time(24, chi)
    )
    assert block_crossover < per_point_crossover


def test_preferred_cross_model_rejects_empty_candidates():
    with pytest.raises(ConfigurationError):
        preferred_cross_model(10, 24, 8, models=())

