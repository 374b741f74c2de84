"""Durable snapshot tier: round-trips, atomicity, integrity, warm-up.

The persistence layer's contract has two halves.  *Durability*: a snapshot
written by one store instance restores into another with byte-identical
states -- the kernel rows a warm-started engine computes match the writer's
exactly.  *Safety*: a crash mid-write can never corrupt the previous good
snapshot (write-temp-then-rename), and corrupted, truncated or partially
written artifacts are rejected at load time instead of poisoning serving.
"""

import json
import os

import numpy as np
import pytest

import repro.serving.persistence as persistence_module
from repro.approx import NystroemConfig, StreamingNystroemClassifier
from repro.config import AnsatzConfig
from repro.core import QuantumKernelInferenceEngine
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like
from repro.engine import StateStore, deserialize_states, serialize_states
from repro.exceptions import PersistenceError
from repro.mps import MPS
from repro.serving import PersistentStateStore, SnapshotManifest

ANSATZ = AnsatzConfig(num_features=4, interaction_distance=1, layers=1, gamma=0.6)


@pytest.fixture(scope="module")
def served_engine():
    data = balanced_subsample(
        generate_elliptic_like(DatasetSpec(num_samples=400, num_features=4, seed=31)),
        20,
        seed=2,
    )
    engine = QuantumKernelInferenceEngine(
        ANSATZ, approximation=NystroemConfig(num_landmarks=6, seed=0)
    )
    engine.fit(data.features, data.labels)
    return engine


@pytest.fixture(scope="module")
def payload(served_engine):
    return served_engine.serving_payload()


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(53)
    return rng.normal(size=(10, 4))


def _durable_classifier(payload, root):
    """A serving replica whose engine store is the durable tier at ``root``."""
    store = PersistentStateStore(root)
    classifier = StreamingNystroemClassifier.from_serving_payload(
        payload, store=store
    )
    store.fingerprint = classifier.feature_map.engine.fingerprint
    return classifier, store


def _plus_state(num_qubits: int) -> MPS:
    return MPS.plus_state(num_qubits)


# ----------------------------------------------------------------------
# Snapshot round trip
# ----------------------------------------------------------------------
def test_snapshot_round_trip_is_byte_identical(payload, queries, tmp_path):
    clf_a, store_a = _durable_classifier(payload, tmp_path)
    result_a = clf_a.classify(queries)
    assert result_a.num_simulations == len(queries)  # genuinely cold
    manifest = store_a.snapshot()
    assert manifest.num_entries == len(queries)
    assert sum(manifest.entry_bytes.values()) == store_a.bytes_in_use

    # "Restart": a fresh store + engine over the same root and payload.
    clf_b, store_b = _durable_classifier(payload, tmp_path)
    assert store_b.restore() == len(queries)
    result_b = clf_b.classify(queries)
    assert result_b.num_simulations == 0  # served entirely from the snapshot
    assert np.array_equal(result_a.kernel_rows, result_b.kernel_rows)
    assert np.array_equal(result_a.decision_values, result_b.decision_values)
    assert np.array_equal(result_a.predictions, result_b.predictions)


def test_a_swept_state_travels_as_its_never_swept_twin(payload, queries, tmp_path):
    """A state's cached query form is never pickled: a swept state ships in
    a state payload, a persistence snapshot and a serving payload as the
    same bytes as a twin that was never swept."""
    swept, swept_store = _durable_classifier(payload, tmp_path / "swept")
    swept.classify(queries)
    twin, twin_store = _durable_classifier(payload, tmp_path / "twin")
    twin.feature_map.engine.encode_rows(twin.scale(queries))
    states = {
        key: (swept_store.store._entries[key], twin_store.store._entries[key])
        for key in swept_store.keys()
    }
    assert len(states) == len(queries)
    assert all(a._query_form is not None and b._query_form is None for a, b in states.values())
    assert serialize_states([a for a, _ in states.values()]) == serialize_states(
        [b for _, b in states.values()]
    )
    assert swept_store.store.dump_entries() == twin_store.store.dump_entries()
    manifests = swept_store.snapshot(), twin_store.snapshot()
    assert manifests[0].payload_file == manifests[1].payload_file
    assert (tmp_path / "swept" / manifests[0].payload_file).read_bytes() == (
        tmp_path / "twin" / manifests[1].payload_file
    ).read_bytes()
    # The landmarks were stacked into the swept model's block.
    landmarks = swept.feature_map.landmark_states_
    assert all(s._query_form is not None for s in landmarks)
    never_swept = deserialize_states(payload["landmark_payload"])
    assert serialize_states(landmarks) == serialize_states(never_swept)
    shipped = swept.serving_payload()
    assert shipped["landmark_payload"] == payload["landmark_payload"]
    assert shipped["model_blob"] == payload["model_blob"]


def test_snapshot_subset_and_manifest_fields(payload, queries, tmp_path):
    clf, store = _durable_classifier(payload, tmp_path)
    clf.classify(queries)
    subset = store.keys()[:3]
    manifest = store.snapshot(keys=subset)
    assert manifest.keys == tuple(subset)
    assert manifest.fingerprint == store.fingerprint
    assert (tmp_path / manifest.payload_file).stat().st_size == manifest.payload_bytes
    # The manifest on disk reparses to the same object.
    assert store.latest_manifest() == manifest


def test_restore_without_snapshot_raises(tmp_path):
    store = PersistentStateStore(tmp_path)
    assert not store.has_snapshot()
    with pytest.raises(PersistenceError):
        store.restore()
    # warm_up treats the same situation as a normal cold start.
    report = store.warm_up()
    assert report.loaded == 0 and report.available == 0


# ----------------------------------------------------------------------
# Crash atomicity
# ----------------------------------------------------------------------
def test_crash_between_temp_write_and_rename_preserves_old_snapshot(
    tmp_path, monkeypatch
):
    store = PersistentStateStore(tmp_path)
    store.put("a", _plus_state(2))
    good = store.snapshot()

    store.put("b", _plus_state(3))
    real_replace = os.replace
    calls = {"n": 0}

    def crash_on_manifest_rename(src, dst):
        # Let the payload land, then die before the manifest rename -- the
        # worst-ordered crash a snapshot writer can suffer.
        calls["n"] += 1
        if str(dst).endswith("MANIFEST.json"):
            raise OSError("simulated crash during rename")
        return real_replace(src, dst)

    monkeypatch.setattr(persistence_module.os, "replace", crash_on_manifest_rename)
    with pytest.raises(OSError):
        store.snapshot()
    monkeypatch.setattr(persistence_module.os, "replace", real_replace)
    assert calls["n"] >= 1

    # The manifest still references the old, complete, verifiable snapshot.
    recovered = PersistentStateStore(tmp_path)
    manifest = recovered.latest_manifest()
    assert manifest is not None and manifest.checksum == good.checksum
    assert recovered.restore() == 1
    assert "a" in recovered and "b" not in recovered


def test_crash_during_temp_write_leaves_no_tmp_after_recovery(tmp_path, monkeypatch):
    store = PersistentStateStore(tmp_path)
    store.put("a", _plus_state(2))

    def crash_on_any_rename(src, dst):
        raise OSError("simulated crash before rename")

    monkeypatch.setattr(persistence_module.os, "replace", crash_on_any_rename)
    with pytest.raises(OSError):
        store.snapshot()
    monkeypatch.undo()
    # The dead writer left a *.tmp behind...
    stale = list(tmp_path.rglob("*.tmp"))
    assert stale
    # ...which the next store instance sweeps on startup.
    recovered = PersistentStateStore(tmp_path)
    assert not list(tmp_path.rglob("*.tmp"))
    assert not recovered.has_snapshot()
    assert recovered.warm_up().loaded == 0


# ----------------------------------------------------------------------
# Integrity: corruption, truncation, partial manifests
# ----------------------------------------------------------------------
def _snapshot_with_entries(tmp_path):
    store = PersistentStateStore(tmp_path)
    store.put("a", _plus_state(2))
    store.put("b", _plus_state(3))
    manifest = store.snapshot()
    return store, manifest


def test_corrupted_payload_is_rejected_by_checksum(tmp_path):
    _store, manifest = _snapshot_with_entries(tmp_path)
    payload_path = tmp_path / manifest.payload_file
    blob = bytearray(payload_path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF  # flip one byte mid-payload
    payload_path.write_bytes(bytes(blob))

    fresh = PersistentStateStore(tmp_path)
    with pytest.raises(PersistenceError, match="checksum"):
        fresh.restore()
    with pytest.raises(PersistenceError, match="checksum"):
        fresh.warm_up()
    assert len(fresh) == 0  # nothing corrupt was attached


def test_truncated_payload_is_rejected_before_deserialising(tmp_path):
    _store, manifest = _snapshot_with_entries(tmp_path)
    payload_path = tmp_path / manifest.payload_file
    blob = payload_path.read_bytes()
    payload_path.write_bytes(blob[: len(blob) // 2])

    fresh = PersistentStateStore(tmp_path)
    with pytest.raises(PersistenceError, match="truncated"):
        fresh.restore()


def test_missing_payload_file_is_rejected(tmp_path):
    _store, manifest = _snapshot_with_entries(tmp_path)
    (tmp_path / manifest.payload_file).unlink()
    with pytest.raises(PersistenceError, match="missing"):
        PersistentStateStore(tmp_path).restore()


def test_partial_manifest_is_rejected(tmp_path):
    _store, manifest = _snapshot_with_entries(tmp_path)
    manifest_path = tmp_path / "MANIFEST.json"

    # Truncated JSON: the shape a crashed non-atomic writer would leave.
    text = manifest_path.read_text()
    manifest_path.write_text(text[: len(text) // 2])
    with pytest.raises(PersistenceError, match="JSON"):
        PersistentStateStore(tmp_path).latest_manifest()

    # Syntactically valid but missing required fields.
    partial = manifest.to_dict()
    del partial["checksum"]
    manifest_path.write_text(json.dumps(partial))
    with pytest.raises(PersistenceError, match="missing fields"):
        PersistentStateStore(tmp_path).latest_manifest()

    # Unsupported future version.
    future = manifest.to_dict()
    future["version"] = 99
    manifest_path.write_text(json.dumps(future))
    with pytest.raises(PersistenceError, match="version"):
        PersistentStateStore(tmp_path).warm_up()


def test_manifest_validates_key_size_consistency():
    raw = {
        "version": 1,
        "fingerprint": "fp",
        "keys": ["a", "b"],
        "entry_bytes": {"a": 10},  # "b" has no recorded size
        "payload_file": "snapshots/x.pkl",
        "payload_bytes": 10,
        "checksum": "0" * 64,
        "created_at": 0.0,
    }
    with pytest.raises(PersistenceError, match="entry_bytes"):
        SnapshotManifest.from_dict(raw)


def test_fingerprint_mismatch_is_rejected(tmp_path):
    store = PersistentStateStore(tmp_path, fingerprint="policy-A")
    store.put("a", _plus_state(2))
    store.snapshot()

    other = PersistentStateStore(tmp_path, fingerprint="policy-B")
    with pytest.raises(PersistenceError, match="fingerprint"):
        other.restore()
    with pytest.raises(PersistenceError, match="fingerprint"):
        other.warm_up()


# ----------------------------------------------------------------------
# Warm-up ordering and budgets
# ----------------------------------------------------------------------
def test_warm_up_prefers_hottest_keys_and_respects_budgets(tmp_path):
    store = PersistentStateStore(tmp_path)
    for name, qubits in (("cold", 2), ("warm", 2), ("hot", 2)):
        store.put(name, _plus_state(qubits))
    # Heat: "hot" 3 lookups, "warm" 2, "cold" 1.
    for key, count in (("hot", 3), ("warm", 2), ("cold", 1)):
        for _ in range(count):
            store.get(key)
    store.snapshot()

    fresh = PersistentStateStore(tmp_path)
    report = fresh.warm_up(max_keys=2)
    assert report.available == 3
    assert report.loaded == 2
    assert report.keys == ("hot", "warm")
    # Hottest-is-MRU: under pressure the LRU sheds "warm" before "hot".
    assert fresh.keys() == ["warm", "hot"]

    one_entry = _plus_state(2).memory_bytes
    tight = PersistentStateStore(tmp_path)
    tight_report = tight.warm_up(max_bytes=one_entry)
    assert tight_report.loaded == 1
    assert tight_report.keys == ("hot",)
    assert tight_report.bytes_loaded == one_entry


def test_warm_up_tie_breaks_deterministically_by_payload_order(tmp_path):
    store = PersistentStateStore(tmp_path)
    store.put("first", _plus_state(2))
    store.put("second", _plus_state(2))
    store.snapshot()  # no accesses: all counts zero

    fresh = PersistentStateStore(tmp_path)
    report = fresh.warm_up(max_keys=1)
    assert report.keys == ("first",)


def test_access_log_survives_restart(tmp_path):
    store = PersistentStateStore(tmp_path)
    store.put("a", _plus_state(2))
    store.get("a")
    store.get("a")
    store.get("never-seen")  # misses count as interest too
    store.save_access_log()

    reborn = PersistentStateStore(tmp_path)
    assert reborn.access_counts == {"a": 2, "never-seen": 1}


def test_corrupt_access_log_is_advisory_not_fatal(tmp_path):
    (tmp_path / "access_log.json").write_text("{not json")
    store = PersistentStateStore(tmp_path)
    assert store.access_counts == {}


# ----------------------------------------------------------------------
# Store-surface passthrough (the engine's view of the tier)
# ----------------------------------------------------------------------
def test_wrapper_delegates_store_surface(tmp_path):
    inner = StateStore(max_bytes=10**9)
    store = PersistentStateStore(tmp_path, store=inner)
    state = _plus_state(2)
    store.put("a", state)
    assert len(store) == 1
    assert "a" in store
    assert store.get("a") is state
    assert store.get("missing") is None
    assert store.bytes_in_use == inner.bytes_in_use
    assert store.max_bytes == 10**9
    stats = store.stats()
    assert stats.hits == 1 and stats.misses == 1
    store.clear()
    assert len(store) == 0


# ----------------------------------------------------------------------
# Encoder contract
# ----------------------------------------------------------------------
#: The simulation fingerprint of the per-point-exact encoder this tier used
#: to persist, the same string without its long-gone dead field, and the
#: first padded sweep's (depth-ordered, unmerged gates) and the second's
#: (a stacked SVD per merged gate step): a snapshot under any of them holds
#: states of another encoder.
OLD_ENCODER_FINGERPRINTS = [
    "sim:allow_lossy_cap=False;canonicalize_before_truncation=True;"
    "dtype='complex128';max_bond_dim=None;track_memory=False;truncation_cutoff=1e-16",
    "sim:allow_lossy_cap=False;dtype='complex128';max_bond_dim=None;"
    "track_memory=False;truncation_cutoff=1e-16",
    "sim:encoder=padded-sweep-1;allow_lossy_cap=False;dtype='complex128';"
    "max_bond_dim=None;track_memory=False;truncation_cutoff=1e-16",
    "sim:encoder=padded-sweep-2;allow_lossy_cap=False;dtype='complex128';"
    "max_bond_dim=None;track_memory=False;truncation_cutoff=1e-16",
    "sim:encoder=layer-mpo-1;allow_lossy_cap=False;dtype='complex128';"
    "max_bond_dim=None;track_memory=False;truncation_cutoff=1e-16",
]


@pytest.mark.parametrize("old_sim_fp", OLD_ENCODER_FINGERPRINTS)
def test_snapshot_of_another_encoder_is_refused(payload, queries, tmp_path, old_sim_fp):
    from repro.engine import state_key

    clf, store = _durable_classifier(payload, tmp_path)
    engine = clf.feature_map.engine
    ansatz_fp, sim_fp = engine.fingerprint.split("|")
    assert "encoder=" in sim_fp and sim_fp != old_sim_fp
    # The old tier: the same rows simulated per point, keyed and stamped the
    # way the old encoder did.
    rows = clf.scaler.transform(queries)
    old = PersistentStateStore(tmp_path, fingerprint=f"{ansatz_fp}|{old_sim_fp}")
    for row in rows:
        old.put(state_key(row, ansatz_fp, old_sim_fp), engine.simulate_row(row).state)
    old.snapshot()

    with pytest.raises(PersistenceError, match="fingerprint"):
        store.restore()
    with pytest.raises(PersistenceError, match="fingerprint"):
        store.warm_up()
    assert len(store) == 0
    result = clf.classify(queries)
    assert result.num_simulations == len(queries)
    assert result.cache_hits == 0
