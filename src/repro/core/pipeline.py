"""End-to-end quantum kernel classification pipeline.

The pipeline reproduces the paper's workflow for one experiment:

1. scale the features of the training split into the feature map's ``(0, 2)``
   interval (statistics learned on the training split only);
2. encode every training point as an MPS and build the training Gram matrix
   ``K_ij = |<psi(x_i)|psi(x_j)>|^2``;
3. encode the test points and build the rectangular test-versus-train kernel;
4. scan the SVM regularisation grid and report the metrics of the best-AUC
   model (the paper's protocol for every table/figure);
5. expose the timing / bond-dimension / memory bookkeeping that the resource
   benchmarks need.

Setting ``kernel="gaussian"`` swaps steps 2-3 for the classical baseline of
Table II while keeping everything else identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Literal, Sequence

import numpy as np

from ..approx import NystroemConfig, NystroemFeatureMap
from ..backends import Backend, get_backend
from ..config import DEFAULT_C_GRID, AnsatzConfig, SimulationConfig
from ..engine import EngineConfig, KernelEngine
from ..exceptions import ConfigurationError, DataError
from ..kernels import GaussianKernel, kernel_concentration
from ..svm import FeatureScaler, GridSearchResult, grid_search_c
from ..svm.model_selection import grid_search_c_linear

__all__ = ["QuantumKernelPipeline", "PipelineResult"]

KernelName = Literal["quantum", "gaussian", "projected"]


@dataclass
class PipelineResult:
    """Everything one pipeline run produces.

    Attributes
    ----------
    kernel_name:
        Which kernel family was used.
    grid:
        Full :class:`~repro.svm.model_selection.GridSearchResult` of the C
        scan.
    train_metrics / test_metrics:
        Metric dictionaries of the best-C model (accuracy, precision,
        recall, f1, auc).
    train_kernel / test_kernel:
        The computed kernel matrices.
    kernel_diagnostics:
        Off-diagonal concentration statistics of the training kernel.
    resource_metrics:
        Simulation/inner-product timing, bond dimension and memory (zeroes
        for the classical baseline).
    approximation:
        Nystrom accounting (config + :class:`~repro.approx.NystroemReport`
        fields) when the run used the low-rank path, else ``None``.  For
        approximate runs ``train_kernel`` / ``test_kernel`` hold the
        *reconstructed* low-rank kernels ``Phi Phi^T``.
    """

    kernel_name: str
    grid: GridSearchResult
    train_metrics: Dict[str, float]
    test_metrics: Dict[str, float]
    train_kernel: np.ndarray
    test_kernel: np.ndarray
    kernel_diagnostics: Dict[str, float] = field(default_factory=dict)
    resource_metrics: Dict[str, float] = field(default_factory=dict)
    approximation: Dict[str, object] | None = None

    @property
    def best_C(self) -> float:
        """Regularisation value the grid scan selected."""
        return self.grid.best_C

    @property
    def test_auc(self) -> float:
        """Headline metric: best test-set AUC."""
        return self.test_metrics["auc"]


class QuantumKernelPipeline:
    """Train-and-evaluate pipeline for quantum (or baseline) kernel SVMs.

    Parameters
    ----------
    ansatz:
        Feature-map hyper-parameters.  Required even for the Gaussian
        baseline (its ``num_features`` defines the expected data width).
    kernel:
        ``"quantum"`` (fidelity kernel via MPS), ``"gaussian"`` (RBF
        baseline) or ``"projected"`` (projected quantum kernel).
    backend:
        MPS backend instance, or ``None`` to build one from ``backend_name``.
    backend_name:
        ``"cpu"`` or ``"gpu"`` (ignored when ``backend`` is given).
    simulation:
        Simulation configuration for a backend built here.
    c_grid / svm_tol:
        The SVM regularisation grid and tolerance (paper: ``[0.01, 4]``,
        ``1e-3``).  ``svm_tol`` is the SMO KKT tolerance and applies only to
        the exact precomputed-kernel scan; the Nystrom branch trains primal
        :class:`~repro.approx.LinearSVC` models, whose gradient-norm
        tolerance is a different quantity and keeps its own default.
    engine_config:
        Knobs of the underlying :class:`~repro.engine.KernelEngine` (whether
        encodes go through a state cache, and its byte budget) used by the
        quantum kernel families.
    approximation:
        A :class:`~repro.approx.NystroemConfig` to route the quantum kernel
        through the low-rank Nystrom path: ``O(n m)`` engine pairs instead
        of ``O(n^2)``, with a primal linear SVM scanned over the same C
        grid.  Only valid with ``kernel="quantum"``.
    """

    def __init__(
        self,
        ansatz: AnsatzConfig,
        kernel: KernelName = "quantum",
        backend: Backend | None = None,
        backend_name: str = "cpu",
        simulation: SimulationConfig | None = None,
        c_grid: Sequence[float] = DEFAULT_C_GRID,
        svm_tol: float = 1e-3,
        scale_interval: tuple[float, float] = (0.0, 2.0),
        engine_config: EngineConfig | None = None,
        approximation: NystroemConfig | None = None,
    ) -> None:
        if kernel not in ("quantum", "gaussian", "projected"):
            raise ConfigurationError(f"unknown kernel family {kernel!r}")
        if approximation is not None and kernel != "quantum":
            raise ConfigurationError(
                "the Nystrom approximation path requires kernel='quantum', "
                f"got {kernel!r}"
            )
        self.ansatz = ansatz
        self.kernel_name: str = kernel
        self.simulation = simulation
        if backend is None and kernel in ("quantum", "projected"):
            backend = get_backend(backend_name, simulation)
        self.backend = backend
        self.engine_config = engine_config
        self.approximation = approximation
        self.c_grid = tuple(c_grid)
        self.svm_tol = float(svm_tol)
        self.scaler = FeatureScaler(lower=scale_interval[0], upper=scale_interval[1])

    # ------------------------------------------------------------------
    def run(
        self,
        X_train: np.ndarray,
        y_train: np.ndarray,
        X_test: np.ndarray,
        y_test: np.ndarray,
    ) -> PipelineResult:
        """Full train + evaluate cycle; returns a :class:`PipelineResult`."""
        X_train, y_train = self._validate(X_train, y_train)
        X_test, y_test = self._validate(X_test, y_test)
        if X_train.shape[1] != X_test.shape[1]:
            raise DataError("train and test feature counts differ")
        if X_train.shape[1] != self.ansatz.num_features:
            raise DataError(
                f"data has {X_train.shape[1]} features but the ansatz expects "
                f"{self.ansatz.num_features}"
            )

        Xs_train = self.scaler.fit_transform(X_train)
        Xs_test = self.scaler.transform(X_test)

        if self.approximation is not None:
            return self._run_nystroem(
                Xs_train, y_train, Xs_test, y_test, self.approximation
            )

        resource: Dict[str, float] = {}
        if self.kernel_name == "quantum":
            engine = KernelEngine(
                self.ansatz, backend=self.backend, config=self.engine_config
            )
            train_result, test_result = engine.gram_and_cross(Xs_train, Xs_test)
            K_train, K_test = train_result.matrix, test_result.matrix
            resource = {
                "simulation_time_s": train_result.simulation_time_s
                + test_result.simulation_time_s,
                "inner_product_time_s": train_result.inner_product_time_s
                + test_result.inner_product_time_s,
                "max_bond_dimension": float(
                    max(train_result.max_bond_dimension, test_result.max_bond_dimension)
                ),
                "train_state_memory_bytes": float(
                    train_result.total_state_memory_bytes
                ),
                "num_simulations": float(
                    train_result.num_simulations + test_result.num_simulations
                ),
                "num_inner_products": float(
                    train_result.num_inner_products + test_result.num_inner_products
                ),
            }
        elif self.kernel_name == "projected":
            from ..kernels import ProjectedQuantumKernel

            pk = ProjectedQuantumKernel(
                self.ansatz, backend=self.backend, engine_config=self.engine_config
            )
            pk.fit(Xs_train)
            K_train = pk.gram_matrix()
            K_test = pk.cross_matrix(Xs_test)
            resource = pk.resource_metrics()
        else:  # gaussian baseline uses the same scaled features
            gk = GaussianKernel()
            K_train, K_test = gk.train_test_matrices(Xs_train, Xs_test)

        grid = grid_search_c(
            K_train, y_train, K_test, y_test, c_grid=self.c_grid, tol=self.svm_tol
        )

        return PipelineResult(
            kernel_name=self.kernel_name,
            grid=grid,
            train_metrics=grid.best_train_metrics,
            test_metrics=grid.best_test_metrics,
            train_kernel=K_train,
            test_kernel=K_test,
            kernel_diagnostics=kernel_concentration(K_train),
            resource_metrics=resource,
        )

    # ------------------------------------------------------------------
    def _build_engine(self) -> KernelEngine:
        """Engine for the approximation path (state cache on by default)."""
        config = self.engine_config
        if config is None:
            config = EngineConfig(use_cache=True)
        return KernelEngine(
            self.ansatz,
            backend=self.backend,
            simulation=self.simulation,
            config=config,
        )

    def _run_nystroem(
        self,
        Xs_train: np.ndarray,
        y_train: np.ndarray,
        Xs_test: np.ndarray,
        y_test: np.ndarray,
        approximation: NystroemConfig,
        engine: KernelEngine | None = None,
    ) -> PipelineResult:
        """Low-rank branch: landmark feature map + primal linear C scan."""
        if engine is None:
            engine = self._build_engine()
        fmap = NystroemFeatureMap(engine, approximation)
        phi_train = fmap.fit_transform(Xs_train)
        phi_test = fmap.transform(Xs_test)

        grid = grid_search_c_linear(
            phi_train, y_train, phi_test, y_test, c_grid=self.c_grid
        )

        K_train = fmap.approximate_kernel(phi_train)
        K_test = fmap.approximate_kernel(phi_test, phi_train)
        report = fmap.report
        resource = {
            "simulation_time_s": report.simulation_time_s,
            "inner_product_time_s": report.inner_product_time_s,
            "num_simulations": float(report.num_simulations),
            "num_inner_products": float(report.num_pair_evaluations),
            "cache_hits": float(report.cache_hits),
            "cache_misses": float(report.cache_misses),
        }
        return PipelineResult(
            kernel_name="quantum-nystroem",
            grid=grid,
            train_metrics=grid.best_train_metrics,
            test_metrics=grid.best_test_metrics,
            train_kernel=K_train,
            test_kernel=K_test,
            kernel_diagnostics=kernel_concentration(K_train),
            resource_metrics=resource,
            approximation={
                "config": approximation.to_dict(),
                "report": report.to_dict(),
                "pair_budget": fmap.fit_pair_budget(Xs_train.shape[0]),
            },
        )

    def run_rank_sweep(
        self,
        X_train: np.ndarray,
        y_train: np.ndarray,
        X_test: np.ndarray,
        y_test: np.ndarray,
        num_landmarks_grid: Sequence[int],
        strategy: str | None = None,
    ) -> Dict[int, PipelineResult]:
        """Run the Nystrom path at several landmark counts, sharing one engine.

        The single engine (and its state store) is reused across ranks, so
        data points encoded for a smaller landmark set are never re-simulated
        for a larger one -- the accuracy-versus-rank crossover curves come
        almost for free on top of one full encode pass.  Requires the
        pipeline to be constructed with an ``approximation`` config (its
        ``num_landmarks`` / ``strategy`` are overridden per sweep point).
        """
        if self.approximation is None:
            raise ConfigurationError(
                "run_rank_sweep requires the pipeline's approximation config"
            )
        if not num_landmarks_grid:
            raise ConfigurationError("num_landmarks_grid must not be empty")

        X_train, y_train = self._validate(X_train, y_train)
        X_test, y_test = self._validate(X_test, y_test)
        Xs_train = self.scaler.fit_transform(X_train)
        Xs_test = self.scaler.transform(X_test)

        engine = self._build_engine()
        base = self.approximation
        results: Dict[int, PipelineResult] = {}
        for m in num_landmarks_grid:
            config = NystroemConfig(
                num_landmarks=int(m),
                strategy=base.strategy if strategy is None else strategy,
                seed=base.seed,
                jitter=base.jitter,
                rank=base.rank,
                eigen_tol=base.eigen_tol,
            )
            results[int(m)] = self._run_nystroem(
                Xs_train, y_train, Xs_test, y_test, config, engine=engine
            )
        return results

    # ------------------------------------------------------------------
    @staticmethod
    def _validate(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        X = np.asarray(X, dtype=float)
        y = np.asarray(y).ravel()
        if X.ndim != 2:
            raise DataError(f"feature matrix must be 2-D, got shape {X.shape}")
        if X.shape[0] != y.size:
            raise DataError(
                f"feature matrix has {X.shape[0]} rows but there are {y.size} labels"
            )
        if X.shape[0] < 2:
            raise DataError("need at least two samples")
        return X, y
