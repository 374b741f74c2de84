"""Tests for the serving kernel-row path: ``kernel_rows(..., block=...)``.

A flush encodes its rows (store hits first, then one stacked sweep of the
misses) and overlaps them with the pre-stacked landmark block.  Every test
here checks that against two oracles kept in the tests: the per-pair overlap
of states each encoded alone with ``encode_row``, and the hit/miss counts of
encoding the same rows one at a time.
"""

import numpy as np
import pytest

from repro.circuits import build_feature_map_circuit
from repro.config import AnsatzConfig
from repro.engine import (
    EngineConfig,
    KernelEngine,
    StackedStateBlock,
    StateStore,
    batched_overlaps,
)
from repro.mps import MPS

ANSATZ = AnsatzConfig(num_features=5, interaction_distance=2, layers=1, gamma=0.8)


class ProbeStore(StateStore):
    """State store recording every get/put into a shared event list."""

    def __init__(self, events):
        super().__init__()
        self.events = events

    def get(self, key):
        state = super().get(key)
        self.events.append(("get", state is not None))
        return state

    def put(self, key, state):
        self.events.append(("put",))
        super().put(key, state)


def _engine(store=None, use_cache=True):
    return KernelEngine(ANSATZ, config=EngineConfig(use_cache=use_cache), store=store)


@pytest.fixture(scope="module")
def train_parts():
    rng = np.random.default_rng(5)
    X_train = rng.uniform(0.05, 1.95, size=(7, 5))
    states = _engine(use_cache=False).encode_rows(X_train)
    return states, StackedStateBlock(states)


def _unmerged(row):
    """Per-point ``MPS.apply_circuit`` of the row's circuit, gate by gate."""
    state = MPS.zero_state(ANSATZ.num_features)
    state.apply_circuit(build_feature_map_circuit(row, ANSATZ))
    return state


def _per_pair_oracle(X, states, states_close):
    """``|<row|train>|^2`` per pair, each row encoded on its own; those
    encodes are checked against per-point simulation of the same steps and
    against the unmerged circuit, to rounding."""
    engine = _engine(use_cache=False)
    rows = [engine.encode_row(row) for row in X]
    states_close(rows, [engine.simulate_row(row).state for row in X])
    states_close(rows, [_unmerged(row) for row in X], same_steps=False)
    values = batched_overlaps([(row, state) for row in rows for state in states])
    K = (np.abs(values) ** 2).reshape(len(rows), len(states))
    exact = np.array([[abs(r.inner_product(s)) ** 2 for s in states] for r in rows])
    assert np.allclose(K, exact, atol=1e-12)
    return K


def _row_by_row_counts(engine, X):
    """Store hit/miss deltas of encoding ``X`` one row at a time."""
    before = engine.store.stats()
    for row in X:
        engine.encode_row(row)
    after = engine.store.stats()
    return after.hits - before.hits, after.misses - before.misses


@pytest.mark.parametrize("batch_rows", [1, 2, 5, 9])
def test_kernel_rows_match_the_per_pair_oracle_cold(train_parts, batch_rows, states_close):
    states, block = train_parts
    X = np.random.default_rng(batch_rows).uniform(0.05, 1.95, size=(batch_rows, 5))
    result = _engine().kernel_rows(X, states, block=block)
    assert result.matrix.shape == (batch_rows, len(states))
    expected = _per_pair_oracle(X, states, states_close)
    assert result.matrix.tobytes() == expected.tobytes()
    assert (result.cache_hits, result.cache_misses) == (0, batch_rows)
    assert result.num_simulations == batch_rows


@pytest.mark.parametrize("warm_rows", [0, 2, 6])
def test_kernel_rows_with_a_warm_store(train_parts, warm_rows, states_close):
    states, block = train_parts
    X = np.random.default_rng(17).uniform(0.05, 1.95, size=(6, 5))
    engine, oracle = _engine(), _engine()
    for e in (engine, oracle):
        if warm_rows:
            e.encode_rows(X[:warm_rows])
    result = engine.kernel_rows(X, states, block=block)
    expected = _per_pair_oracle(X, states, states_close)
    assert result.matrix.tobytes() == expected.tobytes()
    assert (result.cache_hits, result.cache_misses) == _row_by_row_counts(oracle, X)
    assert result.cache_hits == warm_rows
    assert result.num_simulations == 6 - warm_rows


def test_kernel_rows_with_intra_batch_duplicates(train_parts, states_close):
    states, block = train_parts
    X = np.random.default_rng(29).uniform(0.05, 1.95, size=(6, 5))
    X[3] = X[0]
    X[5] = X[0]
    result = _engine().kernel_rows(X, states, block=block)
    expected = _per_pair_oracle(X, states, states_close)
    assert result.matrix.tobytes() == expected.tobytes()
    assert np.array_equal(result.matrix[3], result.matrix[0])
    assert np.array_equal(result.matrix[5], result.matrix[0])
    # Duplicates resolve to store hits, as row-by-row encoding records them.
    counts = _row_by_row_counts(_engine(), X)
    assert (result.cache_hits, result.cache_misses) == counts == (2, 4)
    # Only the 4 distinct rows were simulated.
    assert result.num_simulations == 4


def test_kernel_rows_without_a_store(train_parts, states_close):
    states, block = train_parts
    X = np.random.default_rng(31).uniform(0.05, 1.95, size=(4, 5))
    result = _engine(use_cache=False).kernel_rows(X, states, block=block)
    expected = _per_pair_oracle(X, states, states_close)
    assert result.matrix.tobytes() == expected.tobytes()
    assert result.cache_hits == result.cache_misses == 0


def test_kernel_rows_store_occupancy_matches_row_by_row(train_parts):
    states, block = train_parts
    X = np.random.default_rng(37).uniform(0.05, 1.95, size=(5, 5))
    store, oracle_store = StateStore(), StateStore()
    _engine(store=store).kernel_rows(X, states, block=block)
    _row_by_row_counts(_engine(store=oracle_store), X)
    assert store.stats().num_entries == oracle_store.stats().num_entries == 5
    assert store.stats().bytes_in_use == oracle_store.stats().bytes_in_use


def test_store_writes_land_before_the_block_sweep(train_parts):
    states, block = train_parts
    X = np.random.default_rng(43).uniform(0.05, 1.95, size=(5, 5))
    events = []
    engine = _engine(store=ProbeStore(events))
    original = engine.backend.inner_product_block

    def spy(bras, blk):
        events.append(("block",))
        return original(bras, blk)

    engine.backend.inner_product_block = spy
    engine.kernel_rows(X, states, block=block)
    sweep_at = events.index(("block",))
    assert sum(1 for e in events[:sweep_at] if e == ("put",)) == 5


@pytest.mark.parametrize("num_rows", [1, 4])
@pytest.mark.parametrize("store", ["off", "cold", "warm"])
def test_cross_and_kernel_rows_are_one_path(train_parts, store, num_rows):
    """``cross``, ``kernel_rows`` and ``kernel_rows`` with a pre-stacked block
    return the same bytes and the same accounting, whatever the store holds;
    ``gram`` keeps one state per row."""
    states, _ = train_parts
    X = np.random.default_rng(41 + num_rows).uniform(0.05, 1.95, size=(num_rows, 5))
    if num_rows > 1:
        X[-1] = X[0]  # a duplicate within the call

    def fresh_engine():
        engine = _engine(use_cache=store != "off")
        if store == "warm":
            engine.encode_rows(X[:1])
        return engine

    paths = [
        lambda e: e.cross(X, states),
        lambda e: e.kernel_rows(X, states),
        lambda e: e.kernel_rows(X, states, block=StackedStateBlock(states)),
    ]
    results = [path(fresh_engine()) for path in paths]

    def accounting(result):
        return (
            result.num_simulations,
            result.num_inner_products,
            result.cache_hits,
            result.cache_misses,
        )

    first = results[0]
    assert first.num_inner_products == num_rows * len(states)
    for result in results[1:]:
        assert result.matrix.tobytes() == first.matrix.tobytes()
        assert accounting(result) == accounting(first)
    assert len(fresh_engine().gram(X).states) == num_rows
