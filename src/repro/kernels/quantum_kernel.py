"""The quantum fidelity kernel computed from MPS overlaps.

For a data set ``X = {x_1, ..., x_N}`` and the feature map
``|psi(x)> = U(x)|+>^m`` the kernel is

    K_ij = |<psi(x_i) | psi(x_j)>|^2                       (paper eq. (1))

The computation splits into the two primitives the paper benchmarks
separately (Fig. 5): one MPS simulation per data point (linear in N) and one
MPS inner product per pair (quadratic in N, but each inner product is cheap:
``O(m chi^3)``).

Since the unified-engine refactor this class is a thin, API-stable wrapper
over :class:`repro.engine.KernelEngine`: encoding, state caching, symmetry
exploitation and batched overlap evaluation all live in the engine, and the
same engine instance powers the pipeline, the inference service and the
per-process kernels of the distributed strategies.  Construct the kernel with
an :class:`~repro.engine.EngineConfig` (or a ready-made engine) to enable the
state cache or set the batch sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..backends import Backend
from ..config import AnsatzConfig, SimulationConfig
from ..engine import EngineConfig, EngineResult, KernelEngine
from ..mps import MPS

__all__ = ["QuantumKernel", "QuantumKernelResult"]


@dataclass
class QuantumKernelResult:
    """A computed kernel matrix plus the bookkeeping the benchmarks report."""

    matrix: np.ndarray
    simulation_time_s: float
    inner_product_time_s: float
    max_bond_dimension: int
    total_state_memory_bytes: int
    num_simulations: int
    num_inner_products: int

    @property
    def total_time_s(self) -> float:
        """Measured wall-clock total."""
        return self.simulation_time_s + self.inner_product_time_s

    @classmethod
    def from_engine_result(cls, result: EngineResult) -> "QuantumKernelResult":
        """Project an :class:`~repro.engine.EngineResult` onto this record."""
        return cls(
            matrix=result.matrix,
            simulation_time_s=result.simulation_time_s,
            inner_product_time_s=result.inner_product_time_s,
            max_bond_dimension=result.max_bond_dimension,
            total_state_memory_bytes=result.total_state_memory_bytes,
            num_simulations=result.num_simulations,
            num_inner_products=result.num_inner_products,
        )


class QuantumKernel:
    """Quantum fidelity kernel backed by the unified :class:`KernelEngine`.

    Parameters
    ----------
    ansatz:
        Feature-map hyper-parameters (``m``, ``d``, ``r``, ``gamma``).
    backend:
        Simulation backend; defaults to a fresh CPU backend.
    simulation:
        Simulation configuration forwarded to a default backend when one is
        not supplied explicitly.
    engine:
        A pre-built engine to share (overrides ``backend`` / ``simulation`` /
        ``engine_config``); used by the inference service so that kernel and
        serving paths share one state cache.
    engine_config:
        Engine knobs (cache, batch sizes) for an engine built here.
    """

    def __init__(
        self,
        ansatz: AnsatzConfig,
        backend: Backend | None = None,
        simulation: SimulationConfig | None = None,
        engine: KernelEngine | None = None,
        engine_config: EngineConfig | None = None,
    ) -> None:
        self.ansatz = ansatz
        if engine is None:
            engine = KernelEngine(
                ansatz,
                backend=backend,
                simulation=simulation,
                config=engine_config,
            )
        self.engine = engine
        self.backend = engine.backend

    # ------------------------------------------------------------------
    def encode(self, X: np.ndarray) -> List[MPS]:
        """Simulate the feature-map circuit for every row of ``X``.

        ``X`` must already be scaled to the feature map's ``(0, 2)`` interval
        and have ``ansatz.num_features`` columns.  Returns one MPS per row
        (served from the engine's state store when caching is enabled).
        """
        return self.engine.encode_rows(X)

    def encode_one(self, x: np.ndarray) -> MPS:
        """Simulate the feature-map circuit for a single data point."""
        states = self.encode(np.asarray(x, dtype=float).reshape(1, -1))
        return states[0]

    # ------------------------------------------------------------------
    def gram_matrix(self, X: np.ndarray) -> QuantumKernelResult:
        """Symmetric training Gram matrix ``K_ij = |<psi_i|psi_j>|^2``."""
        return QuantumKernelResult.from_engine_result(self.engine.gram(X))

    def cross_matrix(
        self, X_test: np.ndarray, train_states: Sequence[MPS]
    ) -> QuantumKernelResult:
        """Rectangular kernel between new points and stored training states.

        Returns a matrix of shape ``(n_test, n_train)`` -- the layout
        :meth:`repro.svm.PrecomputedKernelSVC.decision_function` expects.
        """
        return QuantumKernelResult.from_engine_result(
            self.engine.cross(X_test, train_states)
        )

    def train_test_matrices(
        self, X_train: np.ndarray, X_test: np.ndarray
    ) -> tuple[QuantumKernelResult, QuantumKernelResult]:
        """Convenience: training Gram matrix and test cross matrix in one call.

        Training states are simulated once and reused for the cross matrix,
        matching the paper's inference procedure (simulate only the new
        points, reuse the stored training MPS).  Both halves route through
        the same engine calls as :meth:`gram_matrix` / :meth:`cross_matrix`.
        """
        train_result, test_result = self.engine.gram_and_cross(X_train, X_test)
        return (
            QuantumKernelResult.from_engine_result(train_result),
            QuantumKernelResult.from_engine_result(test_result),
        )
