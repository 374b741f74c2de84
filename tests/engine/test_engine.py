"""Unit tests for the KernelEngine facade: numerics, caching, reuse."""

import numpy as np
import pytest

from repro.backends import CpuBackend
from repro.config import AnsatzConfig, SimulationConfig
from repro.core import QuantumKernelInferenceEngine
from repro.engine import (
    EngineConfig,
    KernelEngine,
    StackedStateBlock,
    StateStore,
    batched_overlaps,
)
from repro.exceptions import ConfigurationError, EngineError, KernelError, ReproError


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


def _pair_overlaps(bras, kets):
    """``|<bra|ket>|^2`` for every pair, one pair per batched_overlaps call."""
    return np.array(
        [[np.abs(batched_overlaps([(bra, ket)]))[0] ** 2 for ket in kets] for bra in bras]
    )


def test_cross_plan_matches_gram_block(ansatz, X):
    engine = KernelEngine(ansatz)
    train_result = engine.gram(X[:4])
    cross = engine.cross(X[4:], train_result.states)
    full = engine.gram(X)
    assert cross.matrix.shape == (2, 4)
    # Each gives the per-pair bytes for its own (bra, ket) order; the Gram's
    # lower block mirrors pairs whose bra is the training state.
    assert np.array_equal(cross.matrix, _pair_overlaps(full.states[4:], full.states[:4]))
    assert np.array_equal(
        full.matrix[4:, :4], _pair_overlaps(full.states[:4], full.states[4:]).T
    )
    assert np.allclose(cross.matrix, full.matrix[4:, :4], atol=1e-12)


def test_gram_and_cross_stacks_the_training_states_once(ansatz, X, monkeypatch):
    """The cross phase sweeps against the Gram's block, with the same bytes
    as a cross that stacks the training states itself."""
    built = []
    init = StackedStateBlock.__init__

    def counting_init(self, states):
        built.append(len(states))
        init(self, states)

    monkeypatch.setattr(StackedStateBlock, "__init__", counting_init)
    engine = KernelEngine(ansatz)
    train, test = engine.gram_and_cross(X[:4], X[4:])
    assert built == [4]
    assert test.matrix.tobytes() == engine.cross(X[4:], train.states).matrix.tobytes()


def test_cross_rejects_empty_train_states(ansatz, X):
    with pytest.raises(KernelError):
        KernelEngine(ansatz).cross(X[:1], [])


@pytest.mark.parametrize("bad_value", [np.nan, -np.inf])
def test_validate_features_rejects_non_finite_values(ansatz, X, bad_value):
    rows = np.array(X[:2], dtype=float)
    rows[1, 0] = bad_value
    with pytest.raises(KernelError, match="NaN or infinite"):
        KernelEngine(ansatz).validate_features(rows)


def test_engine_config_validation():
    with pytest.raises(EngineError, match="encode_batch_size"):
        EngineConfig(encode_batch_size=0)


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


# ----------------------------------------------------------------------
# Cross block sweep
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


def test_worker_kwargs_name_a_setting_the_release_does_not_know(ansatz):
    """A payload written when ``SimulationConfig`` still had
    ``canonicalize_before_truncation`` is refused with a library error that
    names the key, not a bare ``TypeError``."""
    old = dict(SimulationConfig().to_dict(), canonicalize_before_truncation=True)
    with pytest.raises(ConfigurationError, match="canonicalize_before_truncation"):
        KernelEngine.from_worker_kwargs(ansatz.to_dict(), old)
    with pytest.raises(ReproError, match="warp"):
        KernelEngine.from_worker_kwargs(dict(ansatz.to_dict(), warp=1), {})
    engine = KernelEngine.from_worker_kwargs(
        ansatz.to_dict(), SimulationConfig().to_dict()
    )
    assert engine.fingerprint == KernelEngine(ansatz).fingerprint
