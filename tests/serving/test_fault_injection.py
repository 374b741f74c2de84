"""Fault injection: a serving process killed after it snapshots.

The durable tier's acceptance bar is survival of *ungraceful* death: the
kill-and-restart test SIGKILLs a real serving process after it snapshots (no
atexit, no context-manager cleanup ran) and proves a warm-started successor
produces byte-identical predictions with zero circuit simulations, both as a
bare classifier and as a service stood up by ``repro.serve``.  That a
request whose own score raises fails alone is a relation of
``tests/properties/test_metamorphic_serving.py``.
"""

import os
import pickle
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.approx import StreamingNystroemClassifier
from repro.config import ServingConfig
from repro.serving import PersistentStateStore, serve

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

# The serving process that gets SIGKILLed: fit, serve, snapshot, die hard.
# It persists its payload and its served outputs so the restarted process
# (the test) can prove byte-identical recovery without refitting.
_CRASHING_SERVER = """
import os, pickle, signal, sys
import numpy as np
from repro.approx import NystroemConfig, StreamingNystroemClassifier
from repro.config import AnsatzConfig
from repro.core import QuantumKernelInferenceEngine
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like
from repro.serving import PersistentStateStore

root = sys.argv[1]
data = balanced_subsample(
    generate_elliptic_like(DatasetSpec(num_samples=400, num_features=4, seed=31)),
    20,
    seed=2,
)
engine = QuantumKernelInferenceEngine(
    AnsatzConfig(num_features=4, interaction_distance=1, layers=1, gamma=0.6),
    approximation=NystroemConfig(num_landmarks=6, seed=0),
)
engine.fit(data.features, data.labels)
payload = engine.serving_payload()

store = PersistentStateStore(os.path.join(root, "tier"))
classifier = StreamingNystroemClassifier.from_serving_payload(payload, store=store)
store.fingerprint = classifier.feature_map.engine.fingerprint

queries = np.random.default_rng(53).normal(size=(10, 4))
result = classifier.classify(queries)
assert result.num_simulations == queries.shape[0]  # genuinely cold

manifest = store.snapshot()
with open(os.path.join(root, "payload.pkl"), "wb") as fh:
    pickle.dump(payload, fh)
np.save(os.path.join(root, "decisions.npy"), result.decision_values)
np.save(os.path.join(root, "predictions.npy"), result.predictions)
np.save(os.path.join(root, "kernel_rows.npy"), result.kernel_rows)
sys.stdout.write(f"served={result.num_points} snapshot={len(manifest.keys)}\\n")
sys.stdout.flush()
os.kill(os.getpid(), signal.SIGKILL)  # no graceful shutdown, ever
"""


def _run_crashing_server(root: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", _CRASHING_SERVER, str(root)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def crashed_server(tmp_path_factory):
    root = tmp_path_factory.mktemp("crash")
    proc = _run_crashing_server(root)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    assert "snapshot=10" in proc.stdout
    return root


def test_kill_and_restart_round_trip_is_byte_identical(crashed_server):
    root = crashed_server
    with open(root / "payload.pkl", "rb") as fh:
        payload = pickle.load(fh)

    # A fresh process (this one) warm-starts from the dead server's snapshot.
    store = PersistentStateStore(root / "tier")
    classifier = StreamingNystroemClassifier.from_serving_payload(
        payload, store=store
    )
    store.fingerprint = classifier.feature_map.engine.fingerprint
    report = store.warm_up()
    assert report.available == 10
    assert report.loaded == 10

    queries = np.random.default_rng(53).normal(size=(10, 4))
    result = classifier.classify(queries)
    assert result.num_simulations == 0  # everything came from the snapshot
    assert np.array_equal(result.decision_values, np.load(root / "decisions.npy"))
    assert np.array_equal(result.predictions, np.load(root / "predictions.npy"))
    assert np.array_equal(result.kernel_rows, np.load(root / "kernel_rows.npy"))


def test_kill_and_restart_warm_starts_a_service(crashed_server):
    root = crashed_server
    with open(root / "payload.pkl", "rb") as fh:
        payload = pickle.load(fh)
    queries = np.random.default_rng(53).normal(size=(10, 4))
    config = ServingConfig(max_batch=4, snapshot_root=str(root / "tier"))
    with serve(payload, config) as handle:
        assert handle.warm_up_report.loaded == 10
        futures = handle.submit_many(queries)
        decisions = np.array([f.result(timeout=60).decision_value for f in futures])
        # Warm evidence: the store never missed, nothing was simulated.
        engine = handle.queue.classifier.feature_map.engine
        assert handle.store.stats().misses == 0
        assert engine.backend.lifetime_summary()["num_simulations"] == 0
        assert handle.metrics()["warm_hit_ratio"] == 1.0
    assert np.array_equal(decisions, np.load(root / "decisions.npy"))
