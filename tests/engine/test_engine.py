"""Unit tests for the KernelEngine facade: executors, caching, reuse."""

import numpy as np
import pytest

from repro.backends import (
    CPU_COST_MODEL,
    CpuBackend,
    DeviceCostModel,
    SimulatedGpuBackend,
)
from repro.config import AnsatzConfig, SimulationConfig
from repro.core import QuantumKernelInferenceEngine
from repro.engine import (
    CrossGramPlan,
    EngineConfig,
    KernelEngine,
    StackedStateBlock,
    StateStore,
    SymmetricGramPlan,
    batched_overlaps,
)
from repro.exceptions import EngineError, KernelError


@pytest.fixture
def ansatz():
    return AnsatzConfig(num_features=4, interaction_distance=2, layers=2, gamma=0.8)


@pytest.fixture
def X(rng):
    return rng.uniform(0.1, 1.9, size=(6, 4))


def _reference_gram(ansatz, X):
    """Hand-rolled sequential double loop, bypassing all engine machinery."""
    from repro.circuits import build_feature_map_circuit

    backend = CpuBackend()
    states = [
        backend.simulate(build_feature_map_circuit(row, ansatz)).state for row in X
    ]
    n = len(states)
    K = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            K[i, j] = K[j, i] = abs(states[i].inner_product(states[j])) ** 2
    return K, states


def test_engine_gram_matches_reference_exactly(ansatz, X):
    K_ref, _ = _reference_gram(ansatz, X)
    result = KernelEngine(ansatz).gram(X)
    assert np.allclose(result.matrix, K_ref, atol=1e-12)
    assert result.num_simulations == X.shape[0]
    assert result.num_inner_products == X.shape[0] * (X.shape[0] - 1) // 2
    assert len(result.states) == X.shape[0]


def test_all_executors_agree(ansatz, X):
    K_ref, _ = _reference_gram(ansatz, X)
    for config in (
        EngineConfig(executor="sequential", batch_size=4),
        EngineConfig(executor="tiled", num_blocks=3),
        EngineConfig(executor="multiprocess", max_workers=1),
    ):
        K = KernelEngine(ansatz, config=config).gram(X).matrix
        assert np.allclose(K, K_ref, atol=1e-12), config.executor


def test_cross_plan_matches_gram_block(ansatz, X):
    engine = KernelEngine(ansatz)
    train_result = engine.gram(X[:4])
    cross = engine.cross(X[4:], train_result.states)
    full = engine.gram(X).matrix
    assert cross.matrix.shape == (2, 4)
    assert np.allclose(cross.matrix, full[4:, :4], atol=1e-12)


def test_execute_plan_validates_state_counts(ansatz, X):
    engine = KernelEngine(ansatz)
    states = engine.encode_rows(X[:3])
    with pytest.raises(EngineError):
        engine.execute_plan(SymmetricGramPlan(5), states)
    with pytest.raises(EngineError):
        engine.execute_plan(CrossGramPlan(2, 5), states[:2], states)
    with pytest.raises(KernelError):
        engine.cross(X[:1], [])


@pytest.mark.parametrize("bad_value", [np.nan, -np.inf])
def test_validate_features_rejects_non_finite_values(ansatz, X, bad_value):
    rows = np.array(X[:2], dtype=float)
    rows[1, 0] = bad_value
    with pytest.raises(KernelError, match="NaN or infinite"):
        KernelEngine(ansatz).validate_features(rows)


def test_engine_config_validation():
    with pytest.raises(EngineError):
        EngineConfig(executor="quantum-teleport")
    with pytest.raises(EngineError):
        EngineConfig(batch_size=0)


# ----------------------------------------------------------------------
# Cache behaviour
# ----------------------------------------------------------------------
def test_cached_engine_never_resimulates_known_rows(ansatz, X):
    engine = KernelEngine(ansatz, config=EngineConfig(use_cache=True))
    first = engine.gram(X)
    assert first.num_simulations == X.shape[0]
    assert first.cache_misses == X.shape[0]
    assert first.cache_hits == 0

    second = engine.gram(X)
    assert second.num_simulations == 0
    assert second.cache_hits == X.shape[0]
    assert np.allclose(first.matrix, second.matrix, atol=1e-15)


def test_shared_store_across_engines(ansatz, X):
    store = StateStore()
    engine_a = KernelEngine(ansatz, store=store)
    engine_b = KernelEngine(ansatz, store=store)
    engine_a.gram(X)
    result = engine_b.gram(X)
    assert result.num_simulations == 0
    assert result.cache_hits == X.shape[0]


def test_cache_respects_ansatz_changes(X, ansatz):
    store = StateStore()
    other = AnsatzConfig(num_features=4, interaction_distance=2, layers=3, gamma=0.8)
    KernelEngine(ansatz, store=store).gram(X)
    result = KernelEngine(other, store=store).gram(X)
    # Different ansatz -> different keys -> all misses, all re-simulated.
    assert result.num_simulations == X.shape[0]
    assert result.cache_hits == 0


# ----------------------------------------------------------------------
# Train-then-infer reuse (the acceptance scenario)
# ----------------------------------------------------------------------
def test_train_then_infer_reuses_cached_states(small_dataset):
    from repro.data import select_features
    from repro.svm import train_test_split

    X = select_features(small_dataset.features, 5)
    X_train, X_test, y_train, y_test = train_test_split(
        X, small_dataset.labels, test_fraction=0.25, seed=4
    )
    ansatz = AnsatzConfig(num_features=5, interaction_distance=1, layers=2, gamma=0.5)

    cached = QuantumKernelInferenceEngine(ansatz, C=2.0, use_cache=True)
    cached.fit(X_train, y_train)
    baseline = QuantumKernelInferenceEngine(ansatz, C=2.0, use_cache=False)
    baseline.fit(X_train, y_train)

    # Classify points the engine has already encoded (training rows).
    repeat = X_train[:3]
    cached_result = cached.kernel_rows(repeat)
    baseline_result = baseline.kernel_rows(repeat)

    assert cached_result.cache_hits >= 1
    assert cached_result.num_simulations == 0
    assert cached_result.num_simulations < baseline_result.num_simulations
    assert np.allclose(
        cached_result.kernel_rows, baseline_result.kernel_rows, atol=1e-12
    )
    assert np.array_equal(cached_result.predictions, baseline_result.predictions)

    stats = cached.cache_stats()
    assert stats is not None and stats.hits >= 3
    assert baseline.cache_stats() is None


def test_tiled_executor_covers_cross_plans(ansatz, X, rng):
    """A tiled engine's cross and kernel rows match the sequential engine."""
    X_rows = rng.uniform(0.1, 1.9, size=(5, 4))
    seq = KernelEngine(ansatz)
    train_states = seq.encode_rows(X)
    K_seq = seq.cross(X_rows, train_states).matrix

    tiled = KernelEngine(ansatz, config=EngineConfig(executor="tiled", num_blocks=2))
    K_tiled = tiled.cross(X_rows, train_states).matrix
    assert np.allclose(K_tiled, K_seq, atol=1e-12)

    # kernel rows run the same padded block sweep as cross
    K_rows = tiled.kernel_rows(X_rows, train_states).matrix
    assert np.allclose(K_rows, K_seq, atol=1e-12)


# ----------------------------------------------------------------------
# Cross block sweep + modelled dispatch
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def train_parts():
    ansatz = AnsatzConfig(num_features=5, interaction_distance=2, layers=1, gamma=0.8)
    X_train = np.random.default_rng(5).uniform(0.05, 1.95, size=(7, 5))
    states = KernelEngine(ansatz).encode_rows(X_train)
    return ansatz, states, StackedStateBlock(states)


def test_cross_block_sweep_byte_identical_to_pair_path(train_parts):
    ansatz, states, block = train_parts
    X = np.random.default_rng(47).uniform(0.05, 1.95, size=(6, 5))
    rows = KernelEngine(ansatz).encode_rows(X)
    sweep = block.overlaps(rows)
    pairs = batched_overlaps([(row, state) for row in rows for state in states])
    assert sweep.tobytes() == pairs.tobytes()


def test_tiled_executor_keeps_its_job_stream(train_parts):
    """The tiled executor's cross agrees with the sequential one bit for bit."""
    ansatz, states, _ = train_parts
    X = np.random.default_rng(53).uniform(0.05, 1.95, size=(4, 5))
    sequential = KernelEngine(ansatz).cross(X, states)
    tiled = KernelEngine(
        ansatz, config=EngineConfig(executor="tiled", num_blocks=2)
    ).cross(X, states)
    assert tiled.matrix.tobytes() == sequential.matrix.tobytes()


def test_dispatch_stays_on_cpu_at_small_chi(train_parts):
    """With the real device models, a small-chi block never clears the GPU's
    launch overhead: the sweep stays on the primary backend."""
    ansatz, states, _ = train_parts
    gpu = SimulatedGpuBackend(SimulationConfig())
    X = np.random.default_rng(59).uniform(0.05, 1.95, size=(4, 5))
    reference = KernelEngine(ansatz).cross(X, states)
    routed = KernelEngine(ansatz, cross_backend=gpu).cross(X, states)
    assert routed.matrix.tobytes() == reference.matrix.tobytes()
    assert gpu.num_inner_products == 0


def test_dispatch_moves_to_the_cheaper_modelled_device(train_parts):
    """A cross backend whose model predicts a cheaper stacked sweep receives
    the block -- and, both backends running identical numerics, the kernel
    does not move a bit."""
    ansatz, states, _ = train_parts
    fast_model = DeviceCostModel(
        "always-cheaper",
        gate_overhead_s=CPU_COST_MODEL.gate_overhead_s / 1e6,
        svd_overhead_s=CPU_COST_MODEL.svd_overhead_s / 1e6,
        contraction_gflops=CPU_COST_MODEL.contraction_gflops * 1e6,
        svd_gflops=CPU_COST_MODEL.svd_gflops * 1e6,
    )
    fast = CpuBackend(SimulationConfig(), cost_model=fast_model)
    X = np.random.default_rng(61).uniform(0.05, 1.95, size=(4, 5))
    reference = KernelEngine(ansatz).cross(X, states)
    routed = KernelEngine(ansatz, cross_backend=fast).cross(X, states)
    assert routed.matrix.tobytes() == reference.matrix.tobytes()
    assert fast.num_inner_products == 4 * len(states)
    # The dispatched backend's accounting is merged into the result.
    assert routed.num_inner_products == reference.num_inner_products


def test_result_carries_the_stacked_launch_model(train_parts):
    ansatz, states, block = train_parts
    X = np.random.default_rng(67).uniform(0.05, 1.95, size=(5, 5))
    result = KernelEngine(ansatz).kernel_rows(X, states, block=block)
    assert result.modelled_batched_simulation_time_s > 0.0
    assert result.modelled_batched_inner_product_time_s > 0.0
    # Stacking can only amortise launches, never add work.
    assert result.modelled_batched_total_time_s <= result.modelled_total_time_s
    assert result.modelled_batched_total_time_s == pytest.approx(
        result.modelled_batched_simulation_time_s
        + result.modelled_batched_inner_product_time_s
    )
