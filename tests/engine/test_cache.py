"""Unit tests for the content-addressed MPS state store."""

import hashlib

import numpy as np
import pytest

from repro.config import AnsatzConfig, SimulationConfig
from repro.engine import (
    KernelEngine,
    StateStore,
    ansatz_fingerprint,
    deserialize_states,
    serialize_states,
    simulation_fingerprint,
    state_key,
)
from repro.exceptions import EngineError
from repro.mps import MPS


@pytest.fixture
def ansatz():
    return AnsatzConfig(num_features=4, interaction_distance=1, layers=2, gamma=0.5)


def _product_state(num_qubits: int) -> MPS:
    return MPS.plus_state(num_qubits)


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
def test_identical_feature_row_gives_identical_key(ansatz):
    fp_a = ansatz_fingerprint(ansatz)
    fp_s = simulation_fingerprint(SimulationConfig())
    row = np.array([0.1, 0.2, 0.3, 0.4])
    # Same values from a different array object / layout still collide.
    row_copy = np.asarray(list(row))
    assert state_key(row, fp_a, fp_s) == state_key(row_copy, fp_a, fp_s)


def test_key_changes_with_data_ansatz_and_truncation(ansatz):
    fp_a = ansatz_fingerprint(ansatz)
    fp_s = simulation_fingerprint(SimulationConfig())
    row = np.array([0.1, 0.2, 0.3, 0.4])
    base = state_key(row, fp_a, fp_s)

    assert state_key(row + 1e-9, fp_a, fp_s) != base

    other_ansatz = AnsatzConfig(
        num_features=4, interaction_distance=1, layers=3, gamma=0.5
    )
    assert state_key(row, ansatz_fingerprint(other_ansatz), fp_s) != base

    other_sim = simulation_fingerprint(SimulationConfig(truncation_cutoff=1e-8))
    assert state_key(row, fp_a, other_sim) != base


def test_engine_keys_are_the_three_part_hash(ansatz):
    """An engine hashes each row, then both fingerprints encoded once: the
    same key as hashing the row, the ansatz and the simulation fingerprint
    in turn, so store and snapshot keys do not move."""
    engine = KernelEngine(ansatz, store=StateStore())
    X = np.random.default_rng(3).uniform(0.05, 1.95, size=(6, 4))
    rows = [X[0], X[1:2], np.asfortranarray(X[2:3]), X[3:6, 0:4][1], list(X[5])]
    expected = []
    for row in rows:
        h = hashlib.blake2b(digest_size=20)
        h.update(np.ascontiguousarray(np.asarray(row, dtype=np.float64)).ravel().tobytes())
        h.update(engine._ansatz_fp.encode())
        h.update(engine._simulation_fp.encode())
        expected.append(h.hexdigest())
        assert state_key(row, engine._ansatz_fp, engine._simulation_fp) == expected[-1]
    engine.encode_rows(X[:2])
    engine.encode_row(X[2])
    assert engine.store.keys() == expected[:3]


# ----------------------------------------------------------------------
# Hit / miss accounting
# ----------------------------------------------------------------------
def test_store_hit_and_miss_statistics():
    store = StateStore()
    state = _product_state(3)
    assert store.get("k1") is None  # miss
    store.put("k1", state)
    assert store.get("k1") is state  # hit
    stats = store.stats()
    assert stats.hits == 1
    assert stats.misses == 1
    assert stats.lookups == 2
    assert stats.hit_rate == pytest.approx(0.5)
    assert stats.num_entries == 1
    assert stats.bytes_in_use == state.memory_bytes


def test_store_len_and_contains():
    store = StateStore()
    store.put("a", _product_state(2))
    assert len(store) == 1
    assert "a" in store and "b" not in store
    store.clear()
    assert len(store) == 0
    assert store.bytes_in_use == 0


# ----------------------------------------------------------------------
# LRU eviction under a byte budget
# ----------------------------------------------------------------------
def test_lru_eviction_under_byte_budget():
    one_state_bytes = _product_state(3).memory_bytes
    store = StateStore(max_bytes=2 * one_state_bytes)
    store.put("a", _product_state(3))
    store.put("b", _product_state(3))
    assert len(store) == 2

    # Touch "a" so "b" becomes least recently used, then overflow.
    assert store.get("a") is not None
    store.put("c", _product_state(3))
    assert len(store) == 2
    assert "a" in store and "c" in store
    assert "b" not in store
    assert store.stats().evictions == 1
    assert store.bytes_in_use <= 2 * one_state_bytes


def test_state_larger_than_budget_is_not_retained():
    small = _product_state(2)
    store = StateStore(max_bytes=small.memory_bytes)
    store.put("big", _product_state(8))  # bigger than the whole budget
    assert len(store) == 0
    store.put("small", small)
    assert "small" in store


def test_put_refreshes_existing_entry_without_double_counting():
    store = StateStore()
    store.put("k", _product_state(3))
    store.put("k", _product_state(3))
    assert len(store) == 1
    assert store.bytes_in_use == _product_state(3).memory_bytes


def test_negative_budget_rejected():
    with pytest.raises(EngineError):
        StateStore(max_bytes=-1)


# ----------------------------------------------------------------------
# Serialisation (cross-process attach)
# ----------------------------------------------------------------------
def test_serialize_states_round_trip_is_exact():
    states = [_product_state(n) for n in (2, 3, 5)]
    restored = deserialize_states(serialize_states(states))
    assert len(restored) == 3
    for original, copy in zip(states, restored):
        assert copy.num_qubits == original.num_qubits
        for a, b in zip(original.tensors, copy.tensors):
            assert np.array_equal(a, b)


def test_deserialize_rejects_non_state_payload():
    import pickle

    with pytest.raises(EngineError):
        deserialize_states(pickle.dumps(["not", "states"]))


def test_dump_and_load_entries_between_stores():
    source = StateStore()
    source.put("a", _product_state(2))
    source.put("b", _product_state(3))
    payload = source.dump_entries()

    target = StateStore()
    assert target.load_entries(payload) == 2
    assert "a" in target and "b" in target
    assert target.bytes_in_use == source.bytes_in_use


def test_dump_entries_subset_and_unknown_key():
    store = StateStore()
    store.put("a", _product_state(2))
    store.put("b", _product_state(3))
    partial = StateStore()
    partial.load_entries(store.dump_entries(keys=["b"]))
    assert "b" in partial and "a" not in partial
    with pytest.raises(EngineError):
        store.dump_entries(keys=["missing"])


def test_loaded_entries_respect_byte_budget():
    source = StateStore()
    source.put("a", _product_state(2))
    source.put("b", _product_state(2))
    one_state_bytes = _product_state(2).memory_bytes
    target = StateStore(max_bytes=one_state_bytes)
    target.load_entries(source.dump_entries())
    assert len(target) == 1  # LRU applied on attach


def test_load_entries_skips_oversized_entries_without_crashing():
    # Regression: an entry whose tensors alone exceed the budget must be
    # skipped (it could never be retained) and must not inflate the count.
    source = StateStore()
    source.put("small", _product_state(2))
    source.put("huge", _product_state(6))
    small_bytes = _product_state(2).memory_bytes
    assert _product_state(6).memory_bytes > small_bytes

    target = StateStore(max_bytes=small_bytes)
    accepted = target.load_entries(source.dump_entries())
    assert accepted == 1
    assert "small" in target and "huge" not in target
    assert target.bytes_in_use == small_bytes
    # The skip is not an eviction: nothing was ever inserted.
    assert target.stats().evictions == 0


def test_load_entries_validates_payload_shape():
    import pickle

    store = StateStore()
    bad_payloads = [
        pickle.dumps({"a": _product_state(2)}),  # dict, not a list of pairs
        pickle.dumps([("a", _product_state(2), "extra")]),  # 3-tuples
        pickle.dumps([("a", "not a state")]),  # value is not an MPS
        pickle.dumps([(7, _product_state(2))]),  # key is not a string
        b"definitely not a pickle",
    ]
    for payload in bad_payloads:
        with pytest.raises(EngineError):
            store.load_entries(payload)
        assert len(store) == 0  # never half-loaded


def test_keys_and_entry_sizes_follow_lru_order():
    store = StateStore()
    store.put("a", _product_state(2))
    store.put("b", _product_state(3))
    assert store.keys() == ["a", "b"]
    store.get("a")  # refresh: "a" becomes most recently used
    assert store.keys() == ["b", "a"]
    sizes = store.entry_sizes()
    assert set(sizes) == {"a", "b"}
    assert sizes["a"] == _product_state(2).memory_bytes
    assert sum(sizes.values()) == store.bytes_in_use
