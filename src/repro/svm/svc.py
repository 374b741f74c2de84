"""Binary kernel SVM trained on a precomputed Gram matrix.

The paper plugs its quantum and Gaussian kernels into a standard Support
Vector Classifier.  We implement the classifier from scratch with the
Sequential Minimal Optimization (SMO) solver of LIBSVM, specialised to a
precomputed kernel:

* the dual problem ``min 1/2 a^T Q a - sum_i a_i`` with
  ``Q_ij = y_i y_j K_ij``, subject to ``0 <= a_i <= C`` and
  ``sum_i a_i y_i = 0``, is solved by repeatedly optimising a pair of
  multipliers analytically;
* the pair is chosen by the second-order working-set selection (WSS2) of
  Fan, Chen & Lin (JMLR 6, 2005): ``i`` is the maximal violator of
  ``-y_t G_t`` over the multipliers that may move up, and ``j`` the
  partner, among those that may move down, whose pair step gains the most
  objective;
* the gradient ``G = Q a - 1`` is kept up to date with two kernel rows per
  step, so each pair update is O(n) vectorised work.

Training stops when the maximal violating pair gap ``m(a) - M(a)`` (the
largest ``-y_t G_t`` that may move up minus the smallest that may move
down) is at most ``tol``, LIBSVM's ``eps``.  The intercept is LIBSVM's:
the mean of ``y_t G_t`` over the free multipliers.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConvergenceError, SVMError

__all__ = ["PrecomputedKernelSVC"]

#: Curvature used for a pair whose ``K_ii + K_jj - 2 K_ij`` is not positive
#: (duplicate rows), as in LIBSVM.
_TAU = 1e-12


def _sigmoid_probability(scores: np.ndarray, a: float, b: float) -> np.ndarray:
    """Numerically stable ``1 / (1 + exp(a * s + b))``."""
    z = a * np.asarray(scores, dtype=float) + b
    p = np.empty_like(z)
    pos = z >= 0
    p[pos] = np.exp(-z[pos]) / (1.0 + np.exp(-z[pos]))
    p[~pos] = 1.0 / (1.0 + np.exp(z[~pos]))
    return p


def _fit_platt_sigmoid(
    scores: np.ndarray, y_signed: np.ndarray, max_iter: int = 100
) -> tuple[float, float]:
    """Fit Platt's sigmoid ``P(y=1|s) = 1/(1+exp(A s + B))`` by Newton.

    Follows the robust formulation of Lin, Lin & Weng (2007): regularised
    ("Laplace-corrected") targets prevent the separable-data blow-up and the
    cross-entropy is evaluated in a cancellation-free form.  Returns
    ``(A, B)``.
    """
    scores = np.asarray(scores, dtype=float).ravel()
    y01 = (np.asarray(y_signed).ravel() > 0).astype(float)
    prior1 = float(np.sum(y01))
    prior0 = float(y01.size - prior1)
    hi = (prior1 + 1.0) / (prior1 + 2.0)
    lo = 1.0 / (prior0 + 2.0)
    t = np.where(y01 > 0, hi, lo)

    a = 0.0
    b = np.log((prior0 + 1.0) / (prior1 + 1.0))

    def objective(a_: float, b_: float) -> float:
        z = a_ * scores + b_
        # t*z + log(1+exp(-z)) for z >= 0, (t-1)*z + log(1+exp(z)) otherwise.
        return float(
            np.sum(
                np.where(
                    z >= 0,
                    t * z + np.log1p(np.exp(-np.abs(z))),
                    (t - 1.0) * z + np.log1p(np.exp(-np.abs(z))),
                )
            )
        )

    fval = objective(a, b)
    for _ in range(max_iter):
        p = _sigmoid_probability(scores, a, b)
        d1 = t - p  # dF/dz per sample
        g_a = float(np.dot(d1, scores))
        g_b = float(np.sum(d1))
        if max(abs(g_a), abs(g_b)) < 1e-10:
            break
        d2 = np.maximum(p * (1.0 - p), 1e-12)
        h_aa = float(np.dot(d2, scores * scores)) + 1e-12
        h_bb = float(np.sum(d2)) + 1e-12
        h_ab = float(np.dot(d2, scores))
        det = h_aa * h_bb - h_ab * h_ab
        if det <= 0:  # pragma: no cover - defensive
            break
        step_a = -(h_bb * g_a - h_ab * g_b) / det
        step_b = -(h_aa * g_b - h_ab * g_a) / det
        # Backtracking line search on the convex objective.
        stepsize = 1.0
        descent = g_a * step_a + g_b * step_b
        improved = False
        for _ls in range(32):
            new_a = a + stepsize * step_a
            new_b = b + stepsize * step_b
            new_f = objective(new_a, new_b)
            if new_f <= fval + 1e-4 * stepsize * descent:
                a, b, fval = new_a, new_b, new_f
                improved = True
                break
            stepsize *= 0.5
        if not improved:  # pragma: no cover - defensive
            break
    return a, b


def _intercept(
    alpha: np.ndarray, y_grad: np.ndarray, positive: np.ndarray, C: float
) -> float:
    """LIBSVM's ``rho`` from the final ``y_t G_t``: their mean over the free
    multipliers, else the midpoint of the interval the bounded ones leave."""
    free = (alpha > 0.0) & (alpha < C)
    if np.any(free):
        return float(np.mean(y_grad[free]))
    at_upper = alpha >= C
    upper_side = np.where(positive, ~at_upper, at_upper)
    return float((np.min(y_grad[upper_side]) + np.max(y_grad[~upper_side])) / 2)


class PrecomputedKernelSVC:
    """Binary C-SVM with a precomputed kernel, trained by SMO.

    Parameters
    ----------
    C:
        Regularisation parameter (box constraint on the dual variables).
    tol:
        Stopping tolerance on the maximal violating pair: training stops
        once ``m(a) - M(a) <= tol`` (LIBSVM's ``eps``); the paper uses
        ``1e-3``.
    max_iter:
        Hard cap on the number of pair updates; reaching it before the
        tolerance holds raises :class:`ConvergenceError` when
        ``strict_convergence`` is set.
    strict_convergence:
        When ``False`` (default) hitting ``max_iter`` returns the current
        (usually already excellent) model instead of raising; set to ``True``
        in tests that verify the optimiser itself.

    Attributes (after :meth:`fit`)
    ------------------------------
    alpha_:
        Dual coefficients, one per training sample.
    intercept_:
        Bias term ``b``.
    support_:
        Indices of samples with non-zero dual coefficient.
    n_iter_:
        Number of pair updates performed.
    """

    def __init__(
        self,
        C: float = 1.0,
        tol: float = 1e-3,
        max_iter: int = 200_000,
        strict_convergence: bool = False,
    ) -> None:
        if C <= 0:
            raise SVMError(f"C must be positive, got {C}")
        if tol <= 0:
            raise SVMError(f"tol must be positive, got {tol}")
        if max_iter < 1:
            raise SVMError("max_iter must be >= 1")
        self.C = float(C)
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self.strict_convergence = bool(strict_convergence)

        self.alpha_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.support_: np.ndarray | None = None
        self.n_iter_: int = 0
        self._y_signed: np.ndarray | None = None
        self._train_scores: np.ndarray | None = None
        self.platt_a_: float | None = None
        self.platt_b_: float | None = None

    # ------------------------------------------------------------------
    @staticmethod
    def _to_signed(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y).ravel()
        unique = set(np.unique(y).tolist())
        if unique <= {0, 1} or unique <= {0.0, 1.0}:
            return np.where(y > 0, 1.0, -1.0)
        if unique <= {-1, 1} or unique <= {-1.0, 1.0}:
            return y.astype(float)
        raise SVMError(f"labels must be binary, got values {sorted(unique)}")

    @staticmethod
    def _validate_kernel(K: np.ndarray, n: int | None = None) -> np.ndarray:
        K = np.asarray(K, dtype=float)
        if K.ndim != 2:
            raise SVMError(f"kernel matrix must be 2-D, got shape {K.shape}")
        if n is not None and K.shape != (n, n):
            raise SVMError(f"kernel must be {n}x{n}, got {K.shape}")
        if not np.all(np.isfinite(K)):
            raise SVMError("kernel matrix contains NaN or infinite entries")
        return K

    # ------------------------------------------------------------------
    def fit(self, K: np.ndarray, y: np.ndarray) -> "PrecomputedKernelSVC":
        """Train on an ``n x n`` training Gram matrix and binary labels.

        SMO with second-order working-set selection (WSS2): each step takes
        the maximal violating ``i``, the partner ``j`` of largest predicted
        objective gain, and solves the two-variable subproblem analytically.
        """
        y_signed = self._to_signed(y)
        n = y_signed.size
        K = self._validate_kernel(K, None)
        if K.shape[0] != n or K.shape[1] != n:
            raise SVMError(
                f"kernel shape {K.shape} inconsistent with {n} labels"
            )
        if n < 2:
            raise SVMError("need at least two training samples")
        if np.all(y_signed == y_signed[0]):
            raise SVMError("training labels contain a single class")

        C = self.C
        positive = y_signed > 0
        diag = np.diag(K).copy()
        alpha = np.zeros(n)
        grad = -np.ones(n)  # G = Q a - 1 with Q_ij = y_i y_j K_ij
        iteration = 0
        while True:
            score = -y_signed * grad
            below, above = alpha < C, alpha > 0.0
            up = np.where(positive, below, above)
            low = np.where(positive, above, below)
            i = int(np.argmax(np.where(up, score, -np.inf)))
            m = score[i]
            if m - np.min(np.where(low, score, np.inf)) <= self.tol:
                break
            if iteration >= self.max_iter:
                if self.strict_convergence:
                    raise ConvergenceError(
                        f"SMO did not converge within {self.max_iter} pair updates"
                    )
                break
            # WSS2: the partner maximising b^2 / a, the gain of the pair step.
            b = m - score
            a = diag[i] + diag - 2.0 * K[i]
            a[a <= 0.0] = _TAU
            j = int(np.argmax(np.where(low & (b > 0.0), b * b / a, -np.inf)))

            yi, yj = y_signed[i], y_signed[j]
            ai, aj = alpha[i], alpha[j]
            if yi != yj:
                delta = (-grad[i] - grad[j]) / a[j]
                diff = ai - aj
                ai += delta
                aj += delta
                if diff > 0.0:
                    if aj < 0.0:
                        aj, ai = 0.0, diff
                    if ai > C:
                        ai, aj = C, C - diff
                else:
                    if ai < 0.0:
                        ai, aj = 0.0, -diff
                    if aj > C:
                        aj, ai = C, C + diff
            else:
                delta = (grad[i] - grad[j]) / a[j]
                total = ai + aj
                ai -= delta
                aj += delta
                if total > C:
                    if ai > C:
                        ai, aj = C, total - C
                    if aj > C:
                        aj, ai = C, total - C
                else:
                    if aj < 0.0:
                        aj, ai = 0.0, total
                    if ai < 0.0:
                        ai, aj = 0.0, total
            grad += y_signed * (
                (yi * (ai - alpha[i])) * K[i] + (yj * (aj - alpha[j])) * K[j]
            )
            alpha[i], alpha[j] = ai, aj
            iteration += 1

        self.alpha_ = alpha
        self.intercept_ = _intercept(alpha, y_signed * grad, positive, C)
        self._y_signed = y_signed
        self.support_ = np.where(alpha > 1e-12)[0]
        self.n_iter_ = iteration
        # Keep the training decision values (one cheap matvec while K is in
        # hand); the Platt sigmoid itself is fitted lazily on the first
        # predict_proba call, so the many fits of a C-grid scan never pay
        # for calibration they do not use.
        self._train_scores = self.decision_function(K)
        self.platt_a_ = None
        self.platt_b_ = None
        return self

    # ------------------------------------------------------------------
    def decision_function(self, K_test: np.ndarray) -> np.ndarray:
        """Decision values for test samples.

        ``K_test`` has shape ``(n_test, n_train)`` with entries
        ``k(x_test_i, x_train_j)``; a NaN or infinite entry raises
        :class:`SVMError` rather than yielding a NaN decision.
        """
        if self.alpha_ is None or self._y_signed is None:
            raise SVMError("model is not fitted")
        K_test = np.asarray(K_test, dtype=float)
        if K_test.ndim == 1:
            K_test = K_test[None, :]
        K_test = self._validate_kernel(K_test)
        if K_test.shape[1] != self.alpha_.size:
            raise SVMError(
                f"test kernel has {K_test.shape[1]} columns but the model was "
                f"trained on {self.alpha_.size} samples"
            )
        return K_test @ (self.alpha_ * self._y_signed) - self.intercept_

    def predict(self, K_test: np.ndarray) -> np.ndarray:
        """Binary predictions in {0, 1}."""
        return (self.decision_function(K_test) > 0).astype(int)

    def predict_proba(self, K_test: np.ndarray) -> np.ndarray:
        """Platt-scaled class probabilities, shape ``(n_test, 2)``.

        ``P(y = 1 | x) = 1 / (1 + exp(A f(x) + B))`` with the sigmoid
        parameters fitted lazily (on first call) from the training decision
        values stored during :meth:`fit` (Platt 1999, with the regularised
        targets and Newton solve of Lin, Lin & Weng 2007).  Column 0 is the
        negative class.
        """
        if self._train_scores is None or self._y_signed is None:
            raise SVMError("model is not fitted")
        if self.platt_a_ is None or self.platt_b_ is None:
            self.platt_a_, self.platt_b_ = _fit_platt_sigmoid(
                self._train_scores, self._y_signed
            )
        scores = self.decision_function(K_test)
        p1 = _sigmoid_probability(scores, self.platt_a_, self.platt_b_)
        return np.column_stack([1.0 - p1, p1])

    def dual_objective(self, K_train: np.ndarray) -> float:
        """Value of the SVM dual objective at the fitted solution.

        ``sum_i a_i - 1/2 sum_ij a_i a_j y_i y_j K_ij``; monotonically
        non-decreasing over SMO iterations, used by optimiser tests.
        """
        if self.alpha_ is None or self._y_signed is None:
            raise SVMError("model is not fitted")
        K_train = self._validate_kernel(K_train, self.alpha_.size)
        ay = self.alpha_ * self._y_signed
        return float(np.sum(self.alpha_) - 0.5 * ay @ K_train @ ay)
