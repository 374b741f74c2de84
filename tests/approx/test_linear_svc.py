"""Unit tests for the primal squared-hinge linear SVM."""

import numpy as np
import pytest

from repro.approx import LinearSVC
from repro.exceptions import ConvergenceError, SVMError
from repro.svm import PrecomputedKernelSVC, accuracy_score, roc_auc_score


def _blobs(n_per_class=30, separation=3.0, seed=0, dim=3):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_per_class, dim))
    b = rng.normal(size=(n_per_class, dim)) + separation
    X = np.vstack([a, b])
    y = np.array([0] * n_per_class + [1] * n_per_class)
    perm = rng.permutation(2 * n_per_class)
    return X[perm], y[perm]


def test_separable_blobs_are_classified_perfectly():
    X, y = _blobs(separation=5.0)
    model = LinearSVC(C=1.0).fit(X, y)
    assert accuracy_score(y, model.predict(X)) == 1.0
    assert model.coef_ is not None and model.coef_.shape == (X.shape[1],)
    assert model.n_iter_ >= 1


def test_overlapping_blobs_beat_chance():
    X, y = _blobs(separation=1.5, seed=3)
    model = LinearSVC(C=1.0).fit(X, y)
    assert roc_auc_score(y, model.decision_function(X)) > 0.8


def test_agrees_with_dual_smo_on_linear_kernel():
    """Primal squared-hinge and dual hinge SVM rank points near-identically."""
    X, y = _blobs(separation=2.0, seed=5)
    primal = LinearSVC(C=1.0).fit(X, y)
    dual = PrecomputedKernelSVC(C=1.0).fit(X @ X.T, y)
    s1 = primal.decision_function(X)
    s2 = dual.decision_function(X @ X.T)
    # identical AUC => identical ranking of the two decision functions
    assert abs(roc_auc_score(y, s1) - roc_auc_score(y, s2)) < 1e-6


def test_signed_and_01_labels_agree():
    X, y = _blobs(seed=2)
    m1 = LinearSVC().fit(X, y)
    m2 = LinearSVC().fit(X, np.where(y == 1, 1, -1))
    assert np.allclose(m1.coef_, m2.coef_)
    assert np.isclose(m1.intercept_, m2.intercept_)


def test_larger_C_fits_training_data_harder():
    X, y = _blobs(separation=1.0, seed=7)
    loose = LinearSVC(C=0.01).fit(X, y)
    tight = LinearSVC(C=100.0).fit(X, y)
    assert accuracy_score(y, tight.predict(X)) >= accuracy_score(y, loose.predict(X))


def test_objective_decreases_from_origin():
    X, y = _blobs(seed=9)
    model = LinearSVC(C=1.0).fit(X, y)
    fitted_obj = model.objective(X, y)
    # objective at w = 0, b = 0 is C * n (every margin violated by 1)
    assert fitted_obj < model.C * X.shape[0]


def test_no_intercept_mode():
    X, y = _blobs(separation=4.0, seed=1)
    X = X - X.mean(axis=0)  # boundary through the origin
    model = LinearSVC(C=1.0, fit_intercept=False).fit(X, y)
    assert model.intercept_ == 0.0
    assert accuracy_score(y, model.predict(X)) > 0.9


def test_strict_convergence_raises_when_capped():
    X, y = _blobs(separation=1.0, seed=4)
    with pytest.raises(ConvergenceError):
        LinearSVC(C=10.0, max_iter=1, tol=1e-14, strict_convergence=True).fit(X, y)


def test_validation_errors():
    X, y = _blobs()
    with pytest.raises(SVMError):
        LinearSVC(C=-1.0)
    with pytest.raises(SVMError):
        LinearSVC().fit(X, y[:-1])
    with pytest.raises(SVMError):
        LinearSVC().fit(X, np.zeros(X.shape[0]))  # single class
    model = LinearSVC().fit(X, y)
    with pytest.raises(SVMError):
        model.decision_function(np.ones((2, X.shape[1] + 1)))
    with pytest.raises(SVMError):
        LinearSVC().decision_function(X)  # unfitted



# ----------------------------------------------------------------------
# Optimality: every fit starts from the origin, and the objective is
# convex, so a converged fit must sit at the unique stationary point.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fit_intercept", [True, False])
@pytest.mark.parametrize("C", [0.1, 1.0, 10.0])
def test_fit_returns_a_stationary_point(C, fit_intercept):
    X, y = _blobs(n_per_class=40, separation=1.5, seed=21, dim=5)
    model = LinearSVC(C=C, fit_intercept=fit_intercept).fit(X, y)
    assert model.n_iter_ < model.max_iter

    # Gradient of 1/2 ||w||^2 + C sum max(0, 1 - y f)^2, written out here
    # rather than read back from the solver.
    y_signed = np.where(y == 1, 1.0, -1.0)
    violation = np.maximum(0.0, 1.0 - y_signed * model.decision_function(X))
    resid = 2.0 * C * violation * y_signed
    grad_w = model.coef_ - X.T @ resid
    assert np.max(np.abs(grad_w)) <= model.tol
    if fit_intercept:
        assert abs(np.sum(resid)) <= model.tol


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_does_not_depend_on_row_order(seed):
    """A drift refit trains on buffered rows in arrival order; the minimiser
    must not care which order that was."""
    X, y = _blobs(separation=2.0, seed=seed, dim=4)
    perm = np.random.default_rng(seed + 50).permutation(X.shape[0])
    model = LinearSVC(C=1.0).fit(X, y)
    shuffled = LinearSVC(C=1.0).fit(X[perm], y[perm])
    assert np.allclose(shuffled.coef_, model.coef_, atol=1e-6)
    assert np.isclose(shuffled.intercept_, model.intercept_, atol=1e-6)
    assert np.isclose(shuffled.objective(X, y), model.objective(X, y), rtol=1e-8)
