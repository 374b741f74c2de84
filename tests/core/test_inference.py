"""Unit tests for the inference engine."""

import numpy as np
import pytest

from repro.config import AnsatzConfig
from repro.core import QuantumKernelInferenceEngine
from repro.data import select_features
from repro.exceptions import SVMError
from repro.svm import train_test_split


@pytest.fixture
def trained_engine(small_dataset):
    X = select_features(small_dataset.features, 5)
    X_train, X_test, y_train, y_test = train_test_split(
        X, small_dataset.labels, test_fraction=0.25, seed=4
    )
    ansatz = AnsatzConfig(num_features=5, interaction_distance=1, layers=2, gamma=0.5)
    engine = QuantumKernelInferenceEngine(ansatz, C=2.0)
    engine.fit(X_train, y_train)
    return engine, X_test, y_test


def test_fit_stores_training_states(trained_engine):
    engine, X_test, _ = trained_engine
    assert engine.is_fitted
    assert engine.num_training_states > 0


def test_predict_shapes_and_values(trained_engine):
    engine, X_test, y_test = trained_engine
    result = engine.kernel_rows(X_test)
    assert result.num_points == X_test.shape[0]
    assert result.kernel_rows.shape == (X_test.shape[0], engine.num_training_states)
    assert np.all(result.kernel_rows >= -1e-12)
    assert np.all(result.kernel_rows <= 1.0 + 1e-12)
    assert set(np.unique(result.predictions)) <= {0, 1}
    assert result.decision_values.shape == result.predictions.shape
    assert result.num_inner_products == X_test.shape[0] * engine.num_training_states
    # predict / decision_function are consistent with kernel_rows.
    assert np.array_equal(engine.predict(X_test), result.predictions)


def test_inference_learns_something(trained_engine):
    engine, X_test, y_test = trained_engine
    from repro.svm import roc_auc_score

    auc = roc_auc_score(y_test, engine.decision_function(X_test))
    assert auc > 0.6


def test_single_point_inference(trained_engine):
    engine, X_test, _ = trained_engine
    single = engine.predict(X_test[0])
    assert single.shape == (1,)


def test_unfitted_engine_raises(small_dataset):
    ansatz = AnsatzConfig(num_features=5)
    engine = QuantumKernelInferenceEngine(ansatz)
    with pytest.raises(SVMError):
        engine.predict(np.ones((1, 5)))


# ----------------------------------------------------------------------
# StateStore round-trip: serving a known point is simulation-free
# ----------------------------------------------------------------------
def test_classifying_training_points_hits_cache_only(trained_engine):
    """A point encoded during fit() must classify with zero cache misses."""
    engine, X_test, _ = trained_engine
    stats_before = engine.cache_stats()
    assert stats_before is not None

    # Recover two raw training rows from the fitted scaler's state: instead,
    # classify a test point twice -- the second pass must be a pure cache hit.
    first = engine.kernel_rows(X_test[:3])
    assert first.cache_misses == first.num_points  # cold: one encode each
    second = engine.kernel_rows(X_test[:3])
    assert second.cache_misses == 0
    assert second.num_simulations == 0
    assert second.cache_hits == second.num_points
    assert np.allclose(second.kernel_rows, first.kernel_rows, atol=1e-12)


def test_training_point_round_trip_is_simulation_free(small_dataset):
    """fit() populates the store; classifying a training point re-uses it."""
    from repro.data import select_features

    X = select_features(small_dataset.features, 5)[:12]
    y = small_dataset.labels[:12]
    if np.unique(y).size < 2:  # pragma: no cover - fixture guard
        y = np.asarray(y).copy()
        y[0] = 1 - y[0]
    ansatz = AnsatzConfig(num_features=5, interaction_distance=1, layers=1, gamma=0.5)
    engine = QuantumKernelInferenceEngine(ansatz, C=1.0)
    engine.fit(X, y)
    result = engine.kernel_rows(X[:4])
    assert result.cache_misses == 0
    assert result.num_simulations == 0
    assert result.cache_hits >= 4


# ----------------------------------------------------------------------
# Nystrom-backed serving
# ----------------------------------------------------------------------
def test_nystroem_backed_inference(small_dataset):
    from repro.approx import NystroemConfig
    from repro.data import select_features

    X = select_features(small_dataset.features, 5)
    X_train, X_test, y_train, y_test = train_test_split(
        X, small_dataset.labels, test_fraction=0.25, seed=4
    )
    m = 8
    engine = QuantumKernelInferenceEngine(
        AnsatzConfig(num_features=5, interaction_distance=1, layers=2, gamma=0.5),
        C=2.0,
        approximation=NystroemConfig(num_landmarks=m, strategy="greedy"),
    )
    engine.fit(X_train, y_train)
    assert engine.is_fitted and engine.is_approximate
    assert engine.num_training_states == m  # landmarks only, not the full set

    result = engine.kernel_rows(X_test)
    assert result.num_inner_products == X_test.shape[0] * m
    assert result.kernel_rows.shape == (X_test.shape[0], m)
    assert set(np.unique(result.predictions)) <= {0, 1}
    assert np.array_equal(engine.predict(X_test), result.predictions)

    from repro.svm import roc_auc_score

    assert roc_auc_score(y_test, engine.decision_function(X_test)) > 0.6


def test_fit_hands_the_gram_block_to_decision_function(rng, monkeypatch):
    """A 20-row exact fit stacks its training states once: the Gram's block
    is the one every later ``decision_function`` sweeps against."""
    from repro.engine import StackedStateBlock

    built = []
    init = StackedStateBlock.__init__

    def counting_init(self, states):
        built.append(len(states))
        init(self, states)

    monkeypatch.setattr(StackedStateBlock, "__init__", counting_init)
    ansatz = AnsatzConfig(num_features=4, interaction_distance=1, layers=1, gamma=0.5)
    X = rng.uniform(-1.0, 1.0, size=(20, 4))
    model = QuantumKernelInferenceEngine(ansatz).fit(X, np.arange(20) % 2)
    first = model.decision_function(X[:3])
    assert built == [20]
    assert model.decision_function(X[:3]).tobytes() == first.tobytes()
    assert built == [20]
