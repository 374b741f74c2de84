"""Nondeterminism audit: seeded components must reproduce exactly.

Every landmark selector takes an explicit ``seed`` (integer or Generator)
and the serving queue draws no random numbers at all; two identical runs
must produce bit-identical outputs.  These are regression tests for that
audit -- any future selector or queue change that sneaks in fresh entropy
(or batch-composition-dependent numerics) fails here.
"""

import numpy as np
import pytest

from repro.approx import (
    NystroemConfig,
    NystroemFeatureMap,
    available_landmark_strategies,
    select_landmarks,
)
from repro.config import AnsatzConfig
from repro.core import QuantumKernelInferenceEngine
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like
from repro.engine import KernelEngine


ANSATZ = AnsatzConfig(num_features=4, interaction_distance=1, layers=1, gamma=0.6)


@pytest.fixture(scope="module")
def features():
    rng = np.random.default_rng(99)
    return rng.uniform(0.1, 1.9, size=(30, 4))


@pytest.mark.parametrize("strategy", sorted(available_landmark_strategies()))
def test_selector_seed_reproducibility(features, strategy):
    first = select_landmarks(features, 6, strategy=strategy, seed=42)
    second = select_landmarks(features, 6, strategy=strategy, seed=42)
    assert np.array_equal(first, second)


@pytest.mark.parametrize("strategy", sorted(available_landmark_strategies()))
def test_selector_accepts_generator(features, strategy):
    """An explicit Generator is honoured (and consumed deterministically)."""
    a = select_landmarks(features, 6, strategy=strategy, seed=np.random.default_rng(7))
    b = select_landmarks(features, 6, strategy=strategy, seed=np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_nystroem_fit_is_reproducible(features):
    def fit_once():
        fmap = NystroemFeatureMap(
            KernelEngine(ANSATZ),
            NystroemConfig(num_landmarks=6, strategy="kmeans", seed=3),
        )
        return fmap.fit_transform(features), fmap.landmark_indices_

    phi_a, idx_a = fit_once()
    phi_b, idx_b = fit_once()
    assert np.array_equal(idx_a, idx_b)
    assert np.array_equal(phi_a, phi_b)


def test_serving_queue_double_run_is_identical():
    """Two identical request streams -> bit-identical predictions.

    Wall-clock timing coalesces the two runs into different batch patterns,
    which must not matter: the engine's grouping-invariant sweep plus the
    row-wise projections make results independent of batching.
    """
    data = balanced_subsample(
        generate_elliptic_like(DatasetSpec(num_samples=400, num_features=4, seed=21)),
        24,
        seed=1,
    )
    rng = np.random.default_rng(17)
    queries = rng.normal(size=(30, 4))

    def run_once():
        engine = QuantumKernelInferenceEngine(
            ANSATZ, approximation=NystroemConfig(num_landmarks=6, seed=0)
        )
        engine.fit(data.features, data.labels)
        with engine.serving_queue(max_batch=5) as queue:
            futures = queue.submit_many(queries)
            return [f.result(timeout=60).decision_value for f in futures]

    assert run_once() == run_once()
