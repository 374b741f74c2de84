"""Property-based tests for the unified kernel engine."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.backends import CpuBackend
from repro.circuits import build_feature_map_circuit
from repro.config import AnsatzConfig
from repro.engine import EngineConfig, KernelEngine
from repro.kernels import is_positive_semidefinite


ANSATZ = AnsatzConfig(num_features=3, interaction_distance=1, layers=1, gamma=0.6)

feature_rows = arrays(
    dtype=float,
    shape=st.tuples(st.integers(2, 4), st.just(3)),
    elements=st.floats(min_value=0.05, max_value=1.95, allow_nan=False),
)


def _reference_gram(X):
    """Sequential double loop over raw MPS inner products (no engine)."""
    backend = CpuBackend()
    states = [
        backend.simulate(build_feature_map_circuit(row, ANSATZ)).state for row in X
    ]
    n = len(states)
    K = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            K[i, j] = K[j, i] = abs(states[i].inner_product(states[j])) ** 2
    return K


@given(feature_rows)
@settings(max_examples=15, deadline=None)
def test_engine_gram_is_symmetric_unit_diagonal_and_matches_reference(X):
    result = KernelEngine(ANSATZ).gram(X)
    K = result.matrix
    n = X.shape[0]
    assert K.shape == (n, n)
    assert np.array_equal(K, K.T)  # mirroring is exact, not approximate
    assert np.allclose(np.diag(K), 1.0, atol=1e-12)
    assert np.all(K >= -1e-12) and np.all(K <= 1.0 + 1e-12)
    assert is_positive_semidefinite(K, atol=1e-7)
    assert np.allclose(K, _reference_gram(X), atol=1e-12)


@given(feature_rows, st.randoms(use_true_random=False))
@settings(max_examples=10, deadline=None)
def test_gram_of_a_row_permutation_is_the_permuted_gram(X, random):
    """Byte for byte on every pair the permutation keeps in order.

    A pair the permutation flips swaps bra and ket: ``|<a|b>|^2`` and
    ``|<b|a>|^2`` are the same number up to the last bit, not the same bytes,
    and the Gram always puts the earlier row in the bra.
    """
    n = X.shape[0]
    perm = np.array(random.sample(range(n), n))
    base = KernelEngine(ANSATZ).gram(X).matrix
    permuted = KernelEngine(ANSATZ).gram(X[perm]).matrix
    expected = base[np.ix_(perm, perm)]
    rows, cols = np.triu_indices(n, 1)
    kept = perm[rows] < perm[cols]
    assert np.array_equal(
        permuted[rows[kept], cols[kept]], expected[rows[kept], cols[kept]]
    )
    assert np.array_equal(permuted, permuted.T)
    assert np.allclose(permuted, expected, atol=1e-15)


@given(feature_rows, st.randoms(use_true_random=False))
@settings(max_examples=10, deadline=None)
def test_gram_of_an_ordered_row_subset_is_the_sub_block(X, random):
    """The triangular sweep's padding never shows: a smaller block, same bytes."""
    n = X.shape[0]
    keep = np.array(sorted(random.sample(range(n), random.randint(1, n))))
    base = KernelEngine(ANSATZ).gram(X).matrix
    sub = KernelEngine(ANSATZ).gram(X[keep]).matrix
    assert np.array_equal(sub, base[np.ix_(keep, keep)])


@given(feature_rows)
@settings(max_examples=10, deadline=None)
def test_cached_engine_matches_uncached_engine(X):
    uncached = KernelEngine(ANSATZ).gram(X).matrix
    engine = KernelEngine(ANSATZ, config=EngineConfig(use_cache=True))
    engine.gram(X)  # warm the store
    cached = engine.gram(X)
    assert cached.num_simulations == 0
    assert np.allclose(cached.matrix, uncached, atol=1e-13)


@given(st.integers(1, 8))
@settings(max_examples=10, deadline=None)
def test_gram_sweeps_strict_upper_triangle_exactly_once(n):
    engine = KernelEngine(ANSATZ)
    calls = []
    sweep = engine.backend.inner_product_block

    def recording(bras, block):
        calls.append((len(bras), block.num_states))
        return sweep(bras, block)

    engine.backend.inner_product_block = recording
    X = np.random.default_rng(n).uniform(0.05, 1.95, size=(n, 3))
    result = engine.gram(X)
    # Row i sweeps one state against the tail j > i, for i < n - 1.
    assert calls == [(1, n - 1 - i) for i in range(n - 1)]
    assert result.num_inner_products == n * (n - 1) // 2
