"""Property-based tests for the SVM optimiser and preprocessing."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.kernels import gaussian_gram_matrix
from repro.svm import FeatureScaler, PrecomputedKernelSVC


data_matrices = arrays(
    dtype=float,
    shape=st.tuples(st.integers(6, 20), st.integers(1, 4)),
    elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
)


@given(data_matrices, st.integers(0, 2**31 - 1), st.floats(min_value=0.05, max_value=5.0))
@settings(max_examples=30, deadline=None)
def test_svm_dual_feasibility_invariants(X, seed, C):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=X.shape[0])
    assume(0 < y.sum() < y.size)
    K = gaussian_gram_matrix(X, alpha=1.0)
    model = PrecomputedKernelSVC(C=C, max_iter=5000).fit(K, y)
    alpha = model.alpha_
    y_signed = np.where(y > 0, 1.0, -1.0)
    # Box constraints.
    assert np.all(alpha >= -1e-9)
    assert np.all(alpha <= C + 1e-9)
    # Equality constraint.
    assert abs(float(alpha @ y_signed)) < 1e-6
    # Support vectors identified consistently.
    assert set(model.support_) == set(np.where(alpha > 1e-12)[0])
    # Predictions are binary and have the right length.
    preds = model.predict(K)
    assert preds.shape == (X.shape[0],)
    assert set(np.unique(preds)) <= {0, 1}


@given(data_matrices)
@settings(max_examples=50, deadline=None)
def test_feature_scaler_output_interval_and_monotonicity(X):
    scaler = FeatureScaler()
    Xt = scaler.fit_transform(X)
    lo, hi = scaler.interval()
    assert np.all(Xt >= lo - 1e-12)
    assert np.all(Xt <= hi + 1e-12)
    # Per-feature (non-strict) monotonicity: sorting the rows by the original
    # value gives non-decreasing scaled values.  Strict order can collapse
    # when two inputs differ by less than the float scaling resolution.
    for col in range(X.shape[1]):
        order = np.argsort(X[:, col], kind="stable")
        assert np.all(np.diff(Xt[order, col]) >= -1e-9)


@given(data_matrices, st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_label_encoding_does_not_change_the_model(X, seed):
    """Training with labels in {0, 1} or {-1, +1} yields the same model."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=X.shape[0])
    assume(0 < y.sum() < y.size)
    K = gaussian_gram_matrix(X, alpha=1.0)
    m01 = PrecomputedKernelSVC(C=1.0, max_iter=5000).fit(K, y)
    mpm = PrecomputedKernelSVC(C=1.0, max_iter=5000).fit(
        K, np.where(y > 0, 1, -1)
    )
    assert np.allclose(m01.alpha_, mpm.alpha_)
    assert m01.intercept_ == mpm.intercept_
    assert np.array_equal(m01.predict(K), mpm.predict(K))
