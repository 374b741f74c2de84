"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
import pytest

from repro.approx import StreamingNystroemClassifier
from repro.config import AnsatzConfig
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like


@pytest.fixture(scope="session")
def small_dataset():
    """A small balanced dataset reused by pipeline/integration tests."""
    full = generate_elliptic_like(
        DatasetSpec(num_samples=600, num_features=8, seed=11)
    )
    return balanced_subsample(full, 40, seed=3)


@dataclass(frozen=True)
class DriftScenario:
    """One seeded drift-injection scenario for the adaptation suites.

    A training split, a disjoint calibration split, and a labelled request
    stream whose distribution changes at ``changepoint``: rows before it are
    exchangeable with the calibration data, rows from it onward carry the
    injected shift.  ``kind`` is one of:

    * ``"iid"``       -- no shift (the false-alarm control);
    * ``"covariate"`` -- the post-changepoint rows are translated by
      ``shift`` training standard deviations per feature (labels keep their
      pre-shift meaning, the input geometry moves);
    * ``"label"``     -- post-changepoint labels of class 1 flip to 0 with
      probability ``flip`` (the geometry stays, the concept moves).
    """

    kind: str
    X_train: np.ndarray
    y_train: np.ndarray
    X_calib: np.ndarray
    y_calib: np.ndarray
    X_stream: np.ndarray
    y_stream: np.ndarray
    changepoint: int


def make_drifted_stream(
    kind: str = "covariate",
    num_features: int = 4,
    train_size: int = 60,
    calib_size: int = 60,
    stream_size: int = 600,
    changepoint: int = 120,
    shift: float = 2.0,
    flip: float = 0.6,
    seed: int = 0,
) -> DriftScenario:
    """Build a :class:`DriftScenario` with fully seeded randomness.

    All three splits are disjoint slices of **one** balanced subsample of a
    single generated dataset: the generator draws fresh cluster centroids
    per seed, so independently seeded datasets are *different*
    distributions -- splitting one shuffled pool is what makes the
    calibration data and the pre-changepoint stream genuinely exchangeable,
    leaving the injected change as the only shift present.
    """
    if kind not in ("iid", "covariate", "label"):
        raise ValueError(f"unknown drift kind {kind!r}")
    total = train_size + calib_size + stream_size
    pool = balanced_subsample(
        generate_elliptic_like(
            DatasetSpec(
                num_samples=max(4000, 8 * total),
                num_features=num_features,
                seed=seed + 11,
            )
        ),
        total if total % 2 == 0 else total + 1,
        seed=seed + 3,
    )
    X = np.array(pool.features, dtype=float)
    y = np.array(pool.labels, dtype=int)
    X_train, y_train = X[:train_size], y[:train_size]
    X_calib = X[train_size : train_size + calib_size]
    y_calib = y[train_size : train_size + calib_size]
    X_stream = X[train_size + calib_size : total].copy()
    y_stream = y[train_size + calib_size : total].copy()
    rng = np.random.default_rng(seed + 41)
    if kind == "covariate":
        X_stream[changepoint:] += shift * np.std(X_train, axis=0)
    elif kind == "label":
        tail = y_stream[changepoint:]
        flips = (tail == 1) & (rng.random(tail.size) < flip)
        y_stream[changepoint:] = np.where(flips, 0, tail)
    return DriftScenario(
        kind=kind,
        X_train=X_train,
        y_train=y_train,
        X_calib=X_calib,
        y_calib=y_calib,
        X_stream=X_stream,
        y_stream=y_stream,
        changepoint=changepoint,
    )


@pytest.fixture
def drifted_stream():
    """Factory fixture: ``drifted_stream(kind=..., seed=...)`` scenarios."""
    return make_drifted_stream


class CoalescerGate:
    """Parks serving coalescers inside a flush until :meth:`release`.

    The serving queue's coalescer never waits for a batch to fill, so a test
    that needs requests to stay pending stalls it instead: :meth:`stall`
    submits a fresh sentinel row to one queue and returns once that queue's
    coalescer is blocked inside the flush scoring it.  Every later
    submission to that queue stays pending until :meth:`release`.
    """

    def __init__(self, monkeypatch) -> None:
        self._entered = threading.Semaphore(0)
        self._gates: dict = {}  # sentinel row bytes -> its release event
        classify = StreamingNystroemClassifier.classify

        def gated_classify(classifier, X):
            for row in np.atleast_2d(np.asarray(X, dtype=float)):
                gate = self._gates.get(row.tobytes())
                if gate is not None:
                    self._entered.release()
                    gate.wait(timeout=60)
            return classify(classifier, X)

        monkeypatch.setattr(StreamingNystroemClassifier, "classify", gated_classify)

    def stall(self, queue):
        """Block ``queue``'s coalescer in a flush; returns the sentinel's future."""
        width = queue.classifier.feature_map.engine.ansatz.num_features
        sentinel = np.full(width, 0.25 + 0.01 * len(self._gates))
        self._gates[sentinel.tobytes()] = threading.Event()
        future = queue.submit(sentinel)
        assert self._entered.acquire(timeout=30), "coalescer never reached the gate"
        return future

    def release(self) -> None:
        """Let every stalled flush finish."""
        for gate in self._gates.values():
            gate.set()


@pytest.fixture
def coalescer_gate(monkeypatch):
    """A :class:`CoalescerGate`, released at teardown."""
    gate = CoalescerGate(monkeypatch)
    yield gate
    gate.release()


#: Largest ``1 - |<a|b>|^2`` allowed between an engine state and another
#: simulation of the same circuit (gate by gate, the unmerged circuit, the
#: dense statevector) under an exact policy: the two factorise different
#: matrices, so they agree only to double-precision rounding.
ENCODE_INFIDELITY_TOL = 1e-12


def record_angle(state):
    """``sum_k sqrt(eps_k)`` over a state's truncation records: each
    truncation is an orthogonal projection that turns the state by at most
    ``arcsin(sqrt(eps_k))``, so this bounds ``sin`` of its angle to the
    untruncated state."""
    return sum(np.sqrt(r.discarded_weight) for r in state.truncation_records)


def assert_states_close(actual, expected, tol=ENCODE_INFIDELITY_TOL):
    """Two simulations of the same circuits, state by state.

    ``1 - |<a|e>|^2 / (<a|a> <e|e>)`` is at most ``tol`` plus, under a lossy
    policy, ``(record_angle(a) + record_angle(e)) ** 2``: each state is
    within its own record angle of the untruncated state, and a single
    truncation meets that bound with equality.  Shapes and
    kept ranks are not compared: the layer encode and a gate-by-gate
    simulation truncate different matrices, so a rank at the cut-off may
    differ by one (the kept-rank oracle is the exact state's Schmidt
    spectrum, ``tests/properties/test_encoding_metamorphic.py``).
    """
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        overlap = abs(a.inner_product(e)) ** 2
        norms = abs(a.inner_product(a)) * abs(e.inner_product(e))
        budget = (record_angle(a) + record_angle(e)) ** 2
        assert 1.0 - overlap / norms <= tol + budget


@pytest.fixture(scope="session", name="record_angle")
def record_angle_fixture():
    """:func:`record_angle`, for suites that bound lossy encodes."""
    return record_angle


@pytest.fixture(scope="session")
def states_close():
    """:func:`assert_states_close`, for suites that check encodes."""
    return assert_states_close


@pytest.fixture
def rng():
    """Deterministic NumPy generator for tests that need randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_ansatz():
    """A 4-qubit ansatz cheap enough for exhaustive cross-validation."""
    return AnsatzConfig(num_features=4, interaction_distance=2, layers=2, gamma=0.8)


def random_statevector(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Normalised random complex statevector on ``num_qubits`` qubits."""
    dim = 2**num_qubits
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(mat)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases
