"""Unit tests for feature scaling."""

import numpy as np
import pytest

from repro.exceptions import DataError
from repro.svm import FeatureScaler, scale_to_interval


def test_scale_to_interval_bounds(rng):
    X = rng.normal(size=(30, 5)) * 10
    scaled = scale_to_interval(X)
    assert scaled.min() >= 0.0
    assert scaled.max() <= 2.0
    assert scaled.min(axis=0) == pytest.approx(np.zeros(5))
    assert scaled.max(axis=0) == pytest.approx(np.full(5, 2.0))


def test_scale_to_interval_constant_feature():
    X = np.column_stack([np.ones(10), np.arange(10.0)])
    scaled = scale_to_interval(X)
    assert np.allclose(scaled[:, 0], 1.0)  # midpoint of (0, 2)


def test_scale_to_interval_validates_shape():
    with pytest.raises(DataError):
        scale_to_interval(np.ones(5))


def test_scaler_fit_transform_interval(rng):
    X = rng.normal(size=(50, 4)) * 3 + 7
    scaler = FeatureScaler()
    Xt = scaler.fit_transform(X)
    lo, hi = scaler.interval()
    assert Xt.min() >= lo - 1e-12
    assert Xt.max() <= hi + 1e-12
    assert scaler.is_fitted


def test_scaler_clips_unseen_extremes(rng):
    X_train = rng.uniform(0, 1, size=(20, 3))
    X_test = X_train.copy()
    X_test[0, 0] = 100.0   # far outside the training range
    X_test[1, 1] = -100.0
    scaler = FeatureScaler()
    scaler.fit(X_train)
    Xt = scaler.transform(X_test)
    lo, hi = scaler.interval()
    assert Xt.max() <= hi
    assert Xt.min() >= lo


def test_scaler_transform_before_fit_raises():
    with pytest.raises(DataError):
        FeatureScaler().transform(np.ones((3, 2)))


def test_scaler_feature_count_mismatch():
    scaler = FeatureScaler()
    scaler.fit(np.ones((5, 3)) * np.arange(3))
    with pytest.raises(DataError):
        scaler.transform(np.ones((5, 4)))


def test_scaler_invalid_parameters():
    with pytest.raises(DataError):
        FeatureScaler(lower=2.0, upper=1.0)
    with pytest.raises(DataError):
        FeatureScaler(margin=-0.1)
    with pytest.raises(DataError):
        FeatureScaler(margin=1.5)
    with pytest.raises(DataError):
        FeatureScaler().fit(np.ones((0, 3)))
    with pytest.raises(DataError):
        FeatureScaler().fit(np.ones(3))


def test_scaler_is_monotone_per_feature(rng):
    X = rng.normal(size=(40, 2))
    scaler = FeatureScaler()
    Xt = scaler.fit_transform(X)
    for col in range(2):
        order_before = np.argsort(X[:, col])
        order_after = np.argsort(Xt[:, col])
        assert np.array_equal(order_before, order_after)


def _reference_transform(scaler, X):
    """The scaling formula evaluated from the fitted statistics on every call."""
    lo, hi = scaler.interval()
    span = scaler._maxs - scaler._mins
    out = np.full_like(X, (lo + hi) / 2.0, dtype=float)
    nonconst = span > 0
    out[:, nonconst] = lo + (X[:, nonconst] - scaler._mins[nonconst]) / span[
        nonconst
    ] * (hi - lo)
    return np.clip(out, lo, hi)


@pytest.mark.parametrize("constant_column", [None, 1])
def test_scaler_derives_its_affine_once_without_changing_bytes(rng, constant_column):
    """The derived statistics change no output byte, never reach the pickle
    or repr, and follow a refit."""
    import pickle

    X = rng.normal(size=(30, 4)) * 3
    if constant_column is not None:
        X[:, constant_column] = 0.5
    scaler = FeatureScaler().fit(X)
    never_used = pickle.dumps(scaler, protocol=pickle.HIGHEST_PROTOCOL)
    tests = [X, X[:1], rng.normal(size=(7, 4)) * 10]
    for X_new in tests:
        assert scaler.transform(X_new).tobytes() == _reference_transform(scaler, X_new).tobytes()
    assert pickle.dumps(scaler, protocol=pickle.HIGHEST_PROTOCOL) == never_used
    assert repr(scaler) == repr(pickle.loads(never_used))
    restored = pickle.loads(pickle.dumps(scaler))
    assert restored.transform(X[:1]).tobytes() == scaler.transform(X[:1]).tobytes()
    scaler.fit(X * 2.0 + 1.0)
    assert scaler.transform(X).tobytes() == _reference_transform(scaler, X).tobytes()
