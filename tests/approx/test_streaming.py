"""Unit tests for the streaming Nystrom classification service."""

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
from repro.exceptions import KernelError
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


def test_streamed_predictions_match_batch_path(served):
    fmap, model, scaler, X_test = served
    batch = StreamingNystroemClassifier(fmap, model, scaler=scaler).classify(X_test)

    clf = StreamingNystroemClassifier(fmap, model, scaler=scaler, buffer_size=4)
    collected = []
    for row in X_test:
        out = clf.submit(row)
        if out is not None:
            collected.append(out)
    tail = clf.flush()
    if tail is not None:
        collected.append(tail)
    preds = np.concatenate([o.predictions for o in collected])
    decisions = np.concatenate([o.decision_values for o in collected])
    assert np.array_equal(preds, batch.predictions)
    assert np.allclose(decisions, batch.decision_values, atol=1e-9)
    assert clf.pending == 0


def test_buffer_flushes_at_capacity(served):
    fmap, model, scaler, X_test = served
    clf = StreamingNystroemClassifier(fmap, model, scaler=scaler, buffer_size=3)
    assert clf.submit(X_test[0]) is None
    assert clf.submit(X_test[1]) is None
    out = clf.submit(X_test[2])
    assert out is not None and out.num_points == 3
    assert clf.pending == 0
    assert clf.flush() is None


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
    with pytest.raises(KernelError):
        StreamingNystroemClassifier(fmap, model, buffer_size=0)


def test_submit_rejects_malformed_rows_without_poisoning_buffer(served):
    from repro.exceptions import SVMError

    fmap, model, scaler, X_test = served
    clf = StreamingNystroemClassifier(fmap, model, scaler=scaler, buffer_size=4)
    clf.submit(X_test[0])
    with pytest.raises(SVMError):
        clf.submit(np.ones(X_test.shape[1] + 2))
    # the valid row is still pending and classifiable
    assert clf.pending == 1
    out = clf.flush()
    assert out is not None and out.num_points == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejected_non_finite_row_leaves_the_stream_unchanged(served, bad):
    """Relation: a stream with a rejected non-finite row flushes the same
    bytes, at the same submits, as the stream without it."""
    from repro.exceptions import SVMError

    fmap, model, scaler, X_test = served
    rows = X_test[:9]
    poisoned = rows[2].copy()
    poisoned[1] = bad

    def run(with_bad_row):
        clf = StreamingNystroemClassifier(fmap, model, scaler=scaler, buffer_size=4)
        flushes = []
        for i, row in enumerate(rows):
            if with_bad_row and i == 3:
                with pytest.raises(SVMError):
                    clf.submit(poisoned)
            out = clf.submit(row)
            if out is not None:
                flushes.append((i, out.decision_values.tobytes()))
        assert clf.pending == len(rows) % 4
        return flushes, clf.flush().decision_values.tobytes()

    assert run(with_bad_row=True) == run(with_bad_row=False)


# ----------------------------------------------------------------------
# Conformal feedback wiring: misconfiguration must fail at its cause, not
# deep inside the serving loop (regression tests for the drift path).
# ----------------------------------------------------------------------
def test_record_feedback_before_attach_raises(served):
    from repro.exceptions import ReproError, SVMError

    fmap, model, scaler, X_test = served
    clf = StreamingNystroemClassifier(fmap, model, scaler=scaler)
    with pytest.raises(SVMError, match="attach_conformal"):
        clf.record_feedback(np.array([0.5, -0.5]), [1, 0])
    # The drift controller catches ReproError; the gap this pins is that an
    # unattached classifier used to surface a bare AttributeError instead.
    assert issubclass(SVMError, ReproError)


def test_attach_conformal_rejects_uncalibrated(served):
    from repro.exceptions import SVMError
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
    from repro.exceptions import SVMError
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
