"""Unit tests for the SMO-trained precomputed-kernel SVM."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConvergenceError, SVMError
from repro.kernels import gaussian_gram_matrix
from repro.svm import PrecomputedKernelSVC, accuracy_score, roc_auc_score


def _blobs(n_per_class=30, separation=3.0, seed=0, dim=2):
    """Two Gaussian blobs, linearly separable for large separation."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_per_class, dim))
    b = rng.normal(size=(n_per_class, dim)) + separation
    X = np.vstack([a, b])
    y = np.array([0] * n_per_class + [1] * n_per_class)
    perm = rng.permutation(2 * n_per_class)
    return X[perm], y[perm]


def _linear_kernel(A, B=None):
    B = A if B is None else B
    return A @ B.T


def test_separable_blobs_linear_kernel():
    X, y = _blobs(separation=5.0)
    K = _linear_kernel(X)
    model = PrecomputedKernelSVC(C=1.0)
    model.fit(K, y)
    preds = model.predict(K)
    assert accuracy_score(y, preds) == 1.0
    assert model.support_ is not None and model.support_.size > 0
    assert model.n_iter_ > 0


def test_gaussian_kernel_nonlinear_problem():
    # XOR-like data: not linearly separable, solvable with an RBF kernel.
    rng = np.random.default_rng(1)
    n = 40
    X = rng.uniform(-1, 1, size=(n, 2))
    y = ((X[:, 0] * X[:, 1]) > 0).astype(int)
    # Guarantee both classes present.
    y[0], y[1] = 0, 1
    K = gaussian_gram_matrix(X, alpha=2.0)
    model = PrecomputedKernelSVC(C=5.0)
    model.fit(K, y)
    acc = accuracy_score(y, model.predict(K))
    assert acc >= 0.9


def test_decision_function_scores_rank_better_than_chance():
    X, y = _blobs(separation=2.0, seed=3)
    K = gaussian_gram_matrix(X)
    model = PrecomputedKernelSVC(C=1.0)
    model.fit(K, y)
    scores = model.decision_function(K)
    assert roc_auc_score(y, scores) > 0.9


def test_dual_constraints_satisfied():
    X, y = _blobs(separation=1.5, seed=5)
    K = gaussian_gram_matrix(X)
    C = 0.7
    model = PrecomputedKernelSVC(C=C)
    model.fit(K, y)
    alpha = model.alpha_
    y_signed = np.where(y > 0, 1.0, -1.0)
    assert np.all(alpha >= -1e-10)
    assert np.all(alpha <= C + 1e-10)
    # Equality constraint sum alpha_i y_i = 0.
    assert float(np.dot(alpha, y_signed)) == pytest.approx(0.0, abs=1e-8)


def test_dual_objective_increases_with_more_iterations():
    X, y = _blobs(separation=1.0, seed=7)
    K = gaussian_gram_matrix(X)
    short = PrecomputedKernelSVC(C=1.0, max_iter=5)
    short.fit(K, y)
    long = PrecomputedKernelSVC(C=1.0)
    long.fit(K, y)
    assert long.dual_objective(K) >= short.dual_objective(K) - 1e-9


def test_test_kernel_prediction_shape_and_validation():
    X, y = _blobs(separation=4.0, seed=11)
    X_test, _ = _blobs(n_per_class=5, separation=4.0, seed=12)
    K = _linear_kernel(X)
    K_test = _linear_kernel(X_test, X)
    model = PrecomputedKernelSVC().fit(K, y)
    preds = model.predict(K_test)
    assert preds.shape == (10,)
    assert set(np.unique(preds)) <= {0, 1}
    # 1-D row is accepted and treated as a single sample.
    single = model.decision_function(K_test[0])
    assert single.shape == (1,)
    with pytest.raises(SVMError):
        model.decision_function(np.ones((2, 7)))


def test_signed_labels_supported():
    X, y = _blobs(separation=5.0, seed=2)
    y_signed = np.where(y > 0, 1, -1)
    K = _linear_kernel(X)
    model = PrecomputedKernelSVC().fit(K, y_signed)
    assert accuracy_score(y, model.predict(K)) == 1.0


def test_invalid_inputs():
    with pytest.raises(SVMError):
        PrecomputedKernelSVC(C=0.0)
    with pytest.raises(SVMError):
        PrecomputedKernelSVC(tol=-1.0)
    with pytest.raises(SVMError):
        PrecomputedKernelSVC(max_iter=0)
    model = PrecomputedKernelSVC()
    with pytest.raises(SVMError):
        model.fit(np.eye(3), np.array([0, 1]))  # size mismatch
    with pytest.raises(SVMError):
        model.fit(np.eye(2), np.array([1, 1]))  # single class
    with pytest.raises(SVMError):
        model.fit(np.ones((2, 3)), np.array([0, 1]))  # non-square kernel
    with pytest.raises(SVMError):
        model.fit(np.eye(1), np.array([1]))  # too few samples
    with pytest.raises(SVMError):
        model.fit(np.eye(2), np.array([0, 2]))  # non-binary labels
    with pytest.raises(SVMError):
        model.decision_function(np.eye(2))  # not fitted
    with pytest.raises(SVMError):
        model.dual_objective(np.eye(2))  # not fitted


def test_regularisation_controls_margin_violations():
    """Smaller C allows more support vectors at the box bound."""
    X, y = _blobs(separation=0.8, seed=21)
    K = gaussian_gram_matrix(X)
    loose = PrecomputedKernelSVC(C=0.01).fit(K, y)
    tight = PrecomputedKernelSVC(C=10.0).fit(K, y)
    at_bound_loose = np.sum(np.isclose(loose.alpha_, 0.01, atol=1e-6))
    at_bound_tight = np.sum(np.isclose(tight.alpha_, 10.0, atol=1e-4))
    assert at_bound_loose >= at_bound_tight


# ----------------------------------------------------------------------
# The SMO solver's relations
# ----------------------------------------------------------------------
def _violating_pair_gap(K, y_signed, alpha, C):
    """``m(a) - M(a)`` from a gradient recomputed from scratch: the largest
    ``-y_t G_t`` over multipliers that may move up minus the smallest over
    those that may move down."""
    grad = y_signed * (K @ (alpha * y_signed)) - 1.0
    score = -y_signed * grad
    positive = y_signed > 0
    up = np.where(positive, alpha < C, alpha > 0)
    low = np.where(positive, alpha > 0, alpha < C)
    return score[up].max() - score[low].min()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(4, 40),
    C=st.sampled_from([0.01, 1.0, 4.0]),
    duplicates=st.integers(0, 3),
    tol=st.sampled_from([1e-3, 1e-6]),
)
def test_returned_model_meets_the_stopping_rule_and_the_constraints(
    seed, n, C, duplicates, tol
):
    """At return the maximal violating pair gap is at most ``tol``, every
    multiplier is inside its box and ``sum a_i y_i`` vanishes; duplicate
    rows make pairs with ``K_ii + K_jj - 2 K_ij = 0``."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = rng.integers(0, 2, size=n)
    y[:2] = [0, 1]
    for k in range(duplicates):
        X[rng.integers(n)] = X[k]
    K = gaussian_gram_matrix(X, alpha=0.5)
    model = PrecomputedKernelSVC(C=C, tol=tol, strict_convergence=True).fit(K, y)
    y_signed = np.where(y > 0, 1.0, -1.0)
    alpha = model.alpha_
    assert np.all(alpha >= 0.0) and np.all(alpha <= C)
    assert abs(float(alpha @ y_signed)) <= 1e-10
    # The running gradient and the recomputed one differ by rounding only.
    assert _violating_pair_gap(K, y_signed, alpha, C) <= tol + 1e-9


def test_refit_is_byte_identical():
    X, y = _blobs(separation=1.2, seed=30)
    K = gaussian_gram_matrix(X)
    a = PrecomputedKernelSVC(C=1.0).fit(K, y)
    b = PrecomputedKernelSVC(C=1.0).fit(K, y)
    assert a.alpha_.tobytes() == b.alpha_.tobytes()
    assert np.float64(a.intercept_).tobytes() == np.float64(b.intercept_).tobytes()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), C=st.sampled_from([0.01, 1.0, 4.0]))
def test_row_permutation_moves_no_decision(seed, C):
    """Permuting the training rows (and the kernel with them) reaches the
    same model: at ``tol=1e-8`` every decision agrees within 1e-6."""
    rng = np.random.default_rng(seed)
    X, y = _blobs(n_per_class=12, separation=1.0, seed=seed)
    K = gaussian_gram_matrix(X, alpha=0.5)
    perm = rng.permutation(y.size)
    K_perm = K[np.ix_(perm, perm)]
    direct = PrecomputedKernelSVC(C=C, tol=1e-8).fit(K, y)
    permuted = PrecomputedKernelSVC(C=C, tol=1e-8).fit(K_perm, y[perm])
    gap = direct.decision_function(K)[perm] - permuted.decision_function(K_perm)
    assert np.max(np.abs(gap)) <= 1e-6


def test_strict_convergence_raises_at_max_iter():
    X, y = _blobs(separation=1.0, seed=7)
    K = gaussian_gram_matrix(X)
    with pytest.raises(ConvergenceError):
        PrecomputedKernelSVC(C=1.0, max_iter=3, strict_convergence=True).fit(K, y)
    lenient = PrecomputedKernelSVC(C=1.0, max_iter=3).fit(K, y)
    assert lenient.n_iter_ == 3


@pytest.mark.parametrize("bad_value", [np.nan, np.inf])
def test_non_finite_kernel_is_rejected(bad_value):
    """A NaN or infinite kernel entry is an input error, not a model with
    NaN decisions."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 2))
    y = (X[:, 0] > 0).astype(int)
    K = gaussian_gram_matrix(X)
    K[3, 17] = K[17, 3] = bad_value
    with pytest.raises(SVMError, match="NaN or infinite"):
        PrecomputedKernelSVC(C=1.0).fit(K, y)


@pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("method", ["decision_function", "predict", "predict_proba"])
def test_non_finite_test_kernel_is_rejected(bad_value, method):
    """Scoring rejects a NaN or infinite test-kernel entry, as fit does,
    instead of returning a NaN decision, class 0 or NaN probabilities."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 2))
    y = (X[:, 0] > 0).astype(int)
    K = gaussian_gram_matrix(X)
    model = PrecomputedKernelSVC(C=1.0).fit(K, y)
    K_test = K[:3].copy()
    K_test[1, 17] = bad_value
    with pytest.raises(SVMError, match="NaN or infinite"):
        getattr(model, method)(K_test)
    # One bad row alone, passed 1-D, is refused too.
    with pytest.raises(SVMError, match="NaN or infinite"):
        getattr(model, method)(K_test[1])


# ----------------------------------------------------------------------
# Platt-scaled probabilities
# ----------------------------------------------------------------------
def test_predict_proba_on_separable_toy_problem():
    X, y = _blobs(separation=5.0, seed=11)
    K = _linear_kernel(X)
    model = PrecomputedKernelSVC(C=1.0).fit(K, y)
    proba = model.predict_proba(K)
    assert proba.shape == (X.shape[0], 2)
    assert np.all(proba >= 0.0) and np.all(proba <= 1.0)
    assert np.allclose(proba.sum(axis=1), 1.0)
    # Confident, correct probabilities on a cleanly separable problem.
    assert np.all(proba[y == 1, 1] > 0.5)
    assert np.all(proba[y == 0, 1] < 0.5)
    assert proba[y == 1, 1].mean() > 0.8
    assert proba[y == 0, 0].mean() > 0.8


def test_predict_proba_is_monotone_in_decision_value():
    X, y = _blobs(separation=2.0, seed=13)
    K = _linear_kernel(X)
    model = PrecomputedKernelSVC(C=1.0).fit(K, y)
    scores = model.decision_function(K)
    p1 = model.predict_proba(K)[:, 1]
    order = np.argsort(scores)
    assert np.all(np.diff(p1[order]) >= -1e-12)


def test_predict_proba_matches_predictions_in_ranking():
    X, y = _blobs(separation=1.5, seed=17)
    K = _linear_kernel(X)
    model = PrecomputedKernelSVC(C=1.0).fit(K, y)
    auc_scores = roc_auc_score(y, model.decision_function(K))
    auc_proba = roc_auc_score(y, model.predict_proba(K)[:, 1])
    assert abs(auc_scores - auc_proba) < 1e-9


def test_predict_proba_unfitted_raises():
    model = PrecomputedKernelSVC()
    with pytest.raises(SVMError):
        model.predict_proba(np.eye(3))
