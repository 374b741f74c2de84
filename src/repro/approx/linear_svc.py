"""Primal linear SVM for explicit (Nystrom) feature spaces.

The SMO dual solver in :class:`repro.svm.PrecomputedKernelSVC` needs the full
``n x n`` Gram matrix -- exactly the object the Nystrom subsystem avoids
materialising.  In the explicit ``n x r`` feature space the natural
formulation is the *primal* L2-regularised squared-hinge SVM

    min_{w, b}  1/2 ||w||^2  +  C sum_i max(0, 1 - y_i (w . phi_i + b))^2

whose objective is convex and differentiable, so a semismooth Newton method
(Hessian restricted to the active margin-violating set, with Armijo
backtracking) converges in a handful of iterations.  Each iteration costs
``O(n r + r^3)`` with ``r <= m`` the retained spectral rank, making training
``O(n m^2)`` overall -- linear in the training-set size.

Decision values of the squared-hinge primal agree in sign and ranking with
the hinge-loss dual on the same features, which is all the downstream
metrics (accuracy / AUC), Platt scaling and conformal wrappers consume.
"""

from __future__ import annotations

import numpy as np

from ..engine import rowwise_matmul
from ..exceptions import ConvergenceError, SVMError
from ..svm.svc import PrecomputedKernelSVC

__all__ = ["LinearSVC"]

_to_signed = PrecomputedKernelSVC._to_signed


class LinearSVC:
    """L2-regularised squared-hinge linear SVM trained by primal Newton.

    Parameters
    ----------
    C:
        Regularisation parameter (loss weight), matching the meaning of the
        kernel SVC's ``C``.
    tol:
        Convergence threshold on the gradient infinity-norm.
    max_iter:
        Newton-iteration cap; exceeding it raises
        :class:`~repro.exceptions.ConvergenceError` when
        ``strict_convergence`` is set, otherwise returns the current model.
    fit_intercept:
        Whether to fit an (unregularised) bias term.

    Attributes (after :meth:`fit`)
    ------------------------------
    coef_:
        Weight vector in feature space, shape ``(num_features,)``.
    intercept_:
        Bias term ``b`` (0.0 when ``fit_intercept`` is False).
    n_iter_:
        Number of Newton iterations performed.
    """

    def __init__(
        self,
        C: float = 1.0,
        tol: float = 1e-6,
        max_iter: int = 100,
        fit_intercept: bool = True,
        strict_convergence: bool = False,
    ) -> None:
        if C <= 0:
            raise SVMError(f"C must be positive, got {C}")
        if tol <= 0:
            raise SVMError(f"tol must be positive, got {tol}")
        if max_iter < 1:
            raise SVMError(f"max_iter must be >= 1, got {max_iter}")
        self.C = float(C)
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self.fit_intercept = bool(fit_intercept)
        self.strict_convergence = bool(strict_convergence)

        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.n_iter_: int = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _validate_features(Phi: np.ndarray, dim: int | None = None) -> np.ndarray:
        Phi = np.asarray(Phi, dtype=float)
        if Phi.ndim == 1:
            Phi = Phi[None, :]
        if Phi.ndim != 2:
            raise SVMError(f"feature matrix must be 2-D, got shape {Phi.shape}")
        if dim is not None and Phi.shape[1] != dim:
            raise SVMError(
                f"feature matrix has {Phi.shape[1]} columns but the model "
                f"was trained on {dim}"
            )
        return Phi

    def _objective_and_grad(
        self, Phi: np.ndarray, y: np.ndarray, w: np.ndarray, b: float
    ) -> tuple[float, np.ndarray, float, np.ndarray]:
        """Objective, gradient (w and b parts) and the active-margin mask."""
        scores = Phi @ w + b
        margin = 1.0 - y * scores
        active = margin > 0.0
        viol = np.where(active, margin, 0.0)
        obj = 0.5 * float(w @ w) + self.C * float(viol @ viol)
        resid = self.C * 2.0 * viol * y  # d loss / d score, negated
        grad_w = w - Phi.T @ resid
        grad_b = -float(np.sum(resid)) if self.fit_intercept else 0.0
        return obj, grad_w, grad_b, active

    def fit(self, Phi: np.ndarray, y: np.ndarray) -> "LinearSVC":
        """Train on an ``n x r`` feature matrix and binary labels.

        The Newton iteration starts from ``w = 0, b = 0``; the objective is
        convex, so the start decides only how many iterations the fit takes.
        """
        Phi = self._validate_features(Phi)
        y_signed = _to_signed(y)
        n, r = Phi.shape
        if y_signed.size != n:
            raise SVMError(
                f"feature matrix has {n} rows but there are {y_signed.size} labels"
            )
        if n < 2:
            raise SVMError("need at least two training samples")
        if np.all(y_signed == y_signed[0]):
            raise SVMError("training labels contain a single class")

        w = np.zeros(r)
        b = 0.0
        iteration = 0
        converged = False
        obj, grad_w, grad_b, active = self._objective_and_grad(Phi, y_signed, w, b)

        for iteration in range(1, self.max_iter + 1):
            gnorm = max(
                float(np.max(np.abs(grad_w))) if r else 0.0, abs(grad_b)
            )
            if gnorm <= self.tol:
                converged = True
                iteration -= 1
                break

            step_w, step_b = self._newton_step(Phi, active, grad_w, grad_b, r)

            # Armijo backtracking on the (convex) objective.
            t = 1.0
            descent = float(grad_w @ step_w) + grad_b * step_b
            if descent >= 0:  # numerical breakdown: fall back to steepest descent
                step_w, step_b = -grad_w, -grad_b
                descent = -float(grad_w @ grad_w) - grad_b * grad_b
            for _ in range(50):
                new_w = w + t * step_w
                new_b = b + t * step_b
                new_obj, new_gw, new_gb, new_active = self._objective_and_grad(
                    Phi, y_signed, new_w, new_b
                )
                if new_obj <= obj + 1e-4 * t * descent:
                    break
                t *= 0.5
            w, b = new_w, new_b
            obj, grad_w, grad_b, active = new_obj, new_gw, new_gb, new_active

        if not converged:
            gnorm = max(
                float(np.max(np.abs(grad_w))) if r else 0.0, abs(grad_b)
            )
            converged = gnorm <= self.tol
        if not converged and self.strict_convergence:
            raise ConvergenceError(
                f"primal Newton did not converge within {self.max_iter} iterations"
            )

        self.coef_ = w
        self.intercept_ = float(b) if self.fit_intercept else 0.0
        self.n_iter_ = iteration
        return self

    def _newton_step(
        self,
        Phi: np.ndarray,
        active: np.ndarray,
        grad_w: np.ndarray,
        grad_b: float,
        r: int,
    ) -> tuple[np.ndarray, float]:
        """Solve the (regularised) active-set Newton system for the step."""
        Phi_a = Phi[active]
        n_active = Phi_a.shape[0]
        if self.fit_intercept:
            H = np.zeros((r + 1, r + 1))
            H[:r, :r] = np.eye(r) + 2.0 * self.C * (Phi_a.T @ Phi_a)
            col = 2.0 * self.C * np.sum(Phi_a, axis=0)
            H[:r, r] = col
            H[r, :r] = col
            # Small floor keeps the system well-posed when no margin is active.
            H[r, r] = 2.0 * self.C * n_active + 1e-8
            g = np.concatenate([grad_w, [grad_b]])
        else:
            H = np.eye(r) + 2.0 * self.C * (Phi_a.T @ Phi_a)
            g = grad_w
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:  # pragma: no cover - defensive
            step = -g
        if self.fit_intercept:
            return step[:r], float(step[r])
        return step, 0.0

    # ------------------------------------------------------------------
    def decision_function(self, Phi: np.ndarray) -> np.ndarray:
        """Continuous decision values ``Phi w + b``.

        Evaluated one row at a time so a point's score is bit-identical
        whether it arrives alone or inside a larger batch (BLAS would pick a
        different kernel, and summation order, per matrix shape otherwise);
        the training loop keeps its vectorised products internally.
        """
        if self.coef_ is None:
            raise SVMError("model is not fitted")
        Phi = self._validate_features(Phi, self.coef_.size)
        return rowwise_matmul(Phi, self.coef_) + self.intercept_

    def predict(self, Phi: np.ndarray) -> np.ndarray:
        """Binary predictions in {0, 1}."""
        return (self.decision_function(Phi) > 0).astype(int)

    def objective(self, Phi: np.ndarray, y: np.ndarray) -> float:
        """Primal objective value at the fitted solution (for tests)."""
        if self.coef_ is None:
            raise SVMError("model is not fitted")
        Phi = self._validate_features(Phi, self.coef_.size)
        obj, _, _, _ = self._objective_and_grad(
            Phi, _to_signed(y), self.coef_, self.intercept_
        )
        return obj
