"""Unit tests for the streaming Nystrom classification service."""

import pickle

import numpy as np
import pytest

from repro.approx import (
    LinearSVC,
    NystroemConfig,
    NystroemFeatureMap,
    StreamingNystroemClassifier,
)
from repro.config import AnsatzConfig
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like
from repro.engine import EngineConfig, KernelEngine
from repro.exceptions import KernelError, SVMError
from repro.svm import FeatureScaler, train_test_split


@pytest.fixture(scope="module")
def served():
    """A fitted feature map + linear model + scaler over a small dataset."""
    data = balanced_subsample(
        generate_elliptic_like(DatasetSpec(num_samples=400, num_features=5, seed=9)),
        48,
        seed=2,
    )
    X_train, X_test, y_train, y_test = train_test_split(
        data.features, data.labels, seed=0
    )
    scaler = FeatureScaler()
    ansatz = AnsatzConfig(num_features=5, interaction_distance=1, layers=1, gamma=0.6)
    engine = KernelEngine(ansatz, config=EngineConfig(use_cache=True))
    fmap = NystroemFeatureMap(engine, NystroemConfig(num_landmarks=10))
    phi = fmap.fit_transform(scaler.fit_transform(X_train))
    model = LinearSVC(C=1.0).fit(phi, y_train)
    return fmap, model, scaler, X_test


def test_classify_batch_costs_m_overlaps_per_point(served):
    fmap, model, scaler, X_test = served
    clf = StreamingNystroemClassifier(fmap, model, scaler=scaler)
    result = clf.classify(X_test)
    assert result.num_points == X_test.shape[0]
    assert result.num_inner_products == X_test.shape[0] * 10
    assert result.kernel_rows.shape == (X_test.shape[0], 10)
    assert set(np.unique(result.predictions)) <= {0, 1}
    assert clf.num_served == X_test.shape[0]


@pytest.mark.parametrize("chunk", [1, 3, 4])
def test_chunked_classify_is_byte_identical_to_the_whole_batch(served, chunk):
    """Relation: classifying the rows ``chunk`` at a time gives the bytes of
    one whole-batch call.  Each side runs on its own cold replica, so the
    stacked encode sees different batch compositions too."""
    fmap, model, scaler, X_test = served
    payload = StreamingNystroemClassifier(fmap, model, scaler=scaler).serving_payload()
    whole = StreamingNystroemClassifier.from_serving_payload(payload).classify(X_test)
    replica = StreamingNystroemClassifier.from_serving_payload(payload)
    parts = [
        replica.classify(X_test[i : i + chunk]) for i in range(0, len(X_test), chunk)
    ]
    decisions = np.concatenate([p.decision_values for p in parts])
    predictions = np.concatenate([p.predictions for p in parts])
    assert decisions.tobytes() == whole.decision_values.tobytes()
    assert predictions.tobytes() == whole.predictions.tobytes()
    assert replica.num_served == len(X_test)


def test_serving_payload_round_trips_through_pickle(served):
    """Relation: a payload pickled and unpickled (as it is to reach another
    process) rebuilds a classifier whose decisions are byte-identical."""
    fmap, model, scaler, X_test = served
    source = StreamingNystroemClassifier(fmap, model, scaler=scaler)
    payload = pickle.loads(pickle.dumps(source.serving_payload()))
    replica = StreamingNystroemClassifier.from_serving_payload(payload)
    assert replica.feature_map.config.num_landmarks == 10
    assert replica.feature_map.engine is not fmap.engine
    reference = source.classify(X_test)
    rebuilt = replica.classify(X_test)
    assert rebuilt.decision_values.tobytes() == reference.decision_values.tobytes()
    assert rebuilt.predictions.tobytes() == reference.predictions.tobytes()


@pytest.mark.parametrize(
    "key",
    [
        "ansatz_kwargs",
        "simulation_kwargs",
        "backend_name",
        "landmark_payload",
        "normalization",
        "model_blob",
        "scaler_blob",
    ],
)
def test_from_serving_payload_rejects_incomplete_payload(served, key):
    fmap, model, scaler, _ = served
    payload = StreamingNystroemClassifier(fmap, model, scaler=scaler).serving_payload()
    payload.pop(key)
    with pytest.raises(SVMError, match=f"missing keys: \\['{key}'\\]"):
        StreamingNystroemClassifier.from_serving_payload(payload)


def test_repeat_queries_are_simulation_free(served):
    """A previously-classified point is served entirely from the state store."""
    fmap, model, scaler, X_test = served
    clf = StreamingNystroemClassifier(fmap, model, scaler=scaler)
    clf.classify(X_test[:2])
    warm = clf.classify(X_test[:2])
    assert warm.num_simulations == 0
    assert warm.cache_misses == 0
    assert warm.cache_hits >= 2


def test_single_row_classification(served):
    fmap, model, scaler, X_test = served
    result = StreamingNystroemClassifier(fmap, model, scaler=scaler).classify(
        X_test[0]
    )
    assert result.num_points == 1


def test_requires_fitted_feature_map(served):
    fmap, model, scaler, _ = served
    engine = fmap.engine
    unfitted = NystroemFeatureMap(engine, NystroemConfig(num_landmarks=4))
    with pytest.raises(KernelError):
        StreamingNystroemClassifier(unfitted, model)


# ----------------------------------------------------------------------
# Conformal feedback wiring: misconfiguration must fail at its cause, not
# deep inside the serving loop (regression tests for the drift path).
# ----------------------------------------------------------------------
def test_record_feedback_before_attach_raises(served):
    from repro.exceptions import ReproError

    fmap, model, scaler, X_test = served
    clf = StreamingNystroemClassifier(fmap, model, scaler=scaler)
    with pytest.raises(SVMError, match="attach_conformal"):
        clf.record_feedback(np.array([0.5, -0.5]), [1, 0])
    # The drift controller catches ReproError; the gap this pins is that an
    # unattached classifier used to surface a bare AttributeError instead.
    assert issubclass(SVMError, ReproError)


def test_attach_conformal_rejects_uncalibrated(served):
    from repro.svm import SplitConformalClassifier

    fmap, model, scaler, X_test = served
    clf = StreamingNystroemClassifier(fmap, model, scaler=scaler)
    with pytest.raises(SVMError, match="calibrated"):
        clf.attach_conformal(SplitConformalClassifier(alpha=0.1))
    with pytest.raises(SVMError, match="calibrated"):
        clf.attach_conformal(None)
    with pytest.raises(SVMError, match="window"):
        clf.attach_conformal(
            SplitConformalClassifier(alpha=0.1).calibrate(
                np.linspace(-2, 2, 20), np.tile([0, 1], 10)
            ),
            window=0,
        )


def test_record_feedback_validates_batch(served):
    from repro.svm import SplitConformalClassifier

    fmap, model, scaler, X_test = served
    clf = StreamingNystroemClassifier(fmap, model, scaler=scaler)
    clf.attach_conformal(
        SplitConformalClassifier(alpha=0.1).calibrate(
            np.linspace(-2, 2, 20), np.tile([0, 1], 10)
        )
    )
    with pytest.raises(SVMError, match="labels"):
        clf.record_feedback(np.array([0.5, -0.5]), [1])
    with pytest.raises(SVMError, match="at least one"):
        clf.record_feedback(np.array([]), [])
    coverage = clf.record_feedback(np.array([3.0, -3.0]), [1, 0])
    assert coverage == 1.0
    assert clf.feedback_count == 2
