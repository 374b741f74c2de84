"""The exact training path's accounting.

A fit of ``n`` rows encodes ``n`` states and evaluates ``n (n - 1) / 2``
Gram overlaps, all counted through ``Backend.inner_product_block`` (the
traced pair count of the ``train`` benchmark reads those calls).
"""

import numpy as np
import pytest

from repro.circuits import build_feature_map_circuit
from repro.config import AnsatzConfig
from repro.core import QuantumKernelInferenceEngine
from repro.engine import KernelEngine
from repro.mps import MPS
from repro.svm import FeatureScaler

ANSATZ = AnsatzConfig(num_features=5, interaction_distance=2, layers=2, gamma=0.7)


class _CallLog:
    """Counts the backend's overlap entry points on one instance."""

    def __init__(self, backend):
        self.block_pairs = []
        self.batch_calls = 0
        self.single_calls = 0
        block, batch, single = (
            backend.inner_product_block,
            backend.inner_product_batch,
            backend.inner_product,
        )

        def on_block(bras, stacked):
            result = block(bras, stacked)
            self.block_pairs.append(result.num_pairs)
            return result

        def on_batch(pairs):
            self.batch_calls += 1
            return batch(pairs)

        def on_single(bra, ket):
            self.single_calls += 1
            return single(bra, ket)

        backend.inner_product_block = on_block
        backend.inner_product_batch = on_batch
        backend.inner_product = on_single


def _check_gram(engine, Xs, distinct):
    log = _CallLog(engine.backend)
    result = engine.gram(Xs)
    n = len(Xs)
    assert result.num_simulations == distinct
    assert result.num_inner_products == n * (n - 1) // 2
    assert sum(log.block_pairs) == n * (n - 1) // 2
    assert len(log.block_pairs) == max(n - 1, 0)
    assert log.batch_calls == 0 and log.single_calls == 0
    return result


@pytest.mark.parametrize("n", [2, 5, 37])
def test_fit_counts_each_encode_and_overlap_once(n, rng, states_close):
    X = rng.uniform(-1.0, 1.0, size=(n, ANSATZ.num_features))
    y = np.arange(n) % 2
    model = QuantumKernelInferenceEngine(ANSATZ)
    log = _CallLog(model.engine.backend)
    model.fit(X, y)
    summary = model.engine.backend.lifetime_summary()
    assert summary["num_simulations"] == n
    assert summary["num_inner_products"] == n * (n - 1) // 2
    assert sum(log.block_pairs) == n * (n - 1) // 2
    assert log.batch_calls == 0 and log.single_calls == 0

    Xs = FeatureScaler().fit_transform(X)
    states = model.engine.encode_rows(Xs)
    unmerged = []
    for row in Xs:
        state = MPS.zero_state(ANSATZ.num_features)
        state.apply_circuit(build_feature_map_circuit(row, ANSATZ))
        unmerged.append(state)
    states_close(states, unmerged)


def test_single_row_gram_makes_no_overlap_call(rng):
    engine = KernelEngine(ANSATZ)
    result = _check_gram(engine, rng.uniform(0.1, 1.9, size=(1, 5)), distinct=1)
    assert result.matrix.tolist() == [[1.0]]


def test_duplicate_rows_are_encoded_once_and_give_equal_gram_rows(rng):
    X = rng.uniform(0.1, 1.9, size=(6, 5))
    X[4] = X[1]
    X[5] = X[1]
    engine = KernelEngine(ANSATZ)
    cached = QuantumKernelInferenceEngine(ANSATZ).engine
    result = _check_gram(cached, X, distinct=4)
    assert result.cache_hits == 2
    K = result.matrix
    others = [0, 2, 3]
    # Rows 4 and 5 meet every other row as the ket, as row 1 does row 0.
    assert K[4, others].tobytes() == K[5, others].tobytes()
    assert K[1, 0] == K[4, 0]
    assert np.allclose(K[1, others], K[4, others], atol=1e-15)
    assert K[1, 4] == K[1, 5] == K[4, 5]
    uncached = _check_gram(engine, X, distinct=6)
    assert uncached.matrix.tobytes() == K.tobytes()


def test_repeated_gram_reports_per_call_counts_and_state_figures(rng):
    """Backend counters only grow, so each result reads its own call's share;
    the resource figures are read off the call's own states."""
    X = rng.uniform(0.1, 1.9, size=(4, 5))
    engine = KernelEngine(ANSATZ)
    first = engine.gram(X)
    second = engine.gram(X)
    for result in (first, second):
        assert result.num_simulations == 4 and result.num_inner_products == 6
        assert result.max_bond_dimension == max(s.max_bond_dimension for s in result.states)
        assert result.total_state_memory_bytes == sum(s.memory_bytes for s in result.states)
    assert second.matrix.tobytes() == first.matrix.tobytes()
    assert second.max_bond_dimension == first.max_bond_dimension
    assert second.total_state_memory_bytes == first.total_state_memory_bytes
    summary = engine.backend.lifetime_summary()
    assert summary["num_simulations"] == 8 and summary["num_inner_products"] == 12
