"""Projected quantum kernel.

The paper's introduction mentions the projected-kernel alternative of Huang
et al. (2021): instead of state overlaps, compute a vector of local
observables (single-qubit Pauli expectation values) for each encoded state
and build a Gaussian kernel on those classical feature vectors:

    phi(x)  = ( <psi(x)| P_q |psi(x)> )_{q, P in {X, Y, Z}}
    k(x,x') = exp(-beta * |phi(x) - phi(x')|^2)

This avoids the exponential concentration that plagues fidelity kernels at
large depth, and provides a second quantum kernel family for the extension
experiments.  The MPS representation makes the local expectation values cheap
(``O(m chi^3)`` for the full set, via the same transfer-matrix sweep as an
inner product).

Encoding goes through the shared :class:`repro.engine.KernelEngine`, so the
projected kernel benefits from the same state cache as the fidelity kernel,
and it accumulates the same resource accounting (simulation time, projection
sweep time, bond dimensions) that the pipeline reports for every quantum
kernel family.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..backends import Backend
from ..config import AnsatzConfig, SimulationConfig
from ..engine import EngineConfig, KernelEngine
from ..exceptions import KernelError
from ..mps import MPS, pauli_x, pauli_y, pauli_z
from .gaussian import gaussian_gram_matrix

__all__ = ["ProjectedQuantumKernel"]


@dataclass
class ProjectedQuantumKernel:
    """Projected quantum kernel built from single-qubit Pauli expectations.

    Parameters
    ----------
    ansatz:
        Feature-map hyper-parameters (shared with the fidelity kernel).
    beta:
        Bandwidth of the outer Gaussian kernel on the projected features.
        ``None`` selects ``1 / median(|phi_i - phi_j|^2)`` on the training
        projections.
    backend:
        MPS simulation backend.
    engine:
        A pre-built :class:`KernelEngine` to share (e.g. with a fidelity
        kernel over the same ansatz, so both draw on one state cache).
    """

    ansatz: AnsatzConfig
    beta: float | None = None
    backend: Backend | None = None
    simulation: SimulationConfig | None = None
    engine: KernelEngine | None = None
    engine_config: EngineConfig | None = None
    _train_projections: np.ndarray | None = field(default=None, repr=False)
    _beta_resolved: float | None = field(default=None, repr=False)
    _resource: Dict[str, float] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.engine is None:
            self.engine = KernelEngine(
                self.ansatz,
                backend=self.backend,
                simulation=self.simulation,
                config=self.engine_config,
            )
        self.backend = self.engine.backend

    # ------------------------------------------------------------------
    def project_state(self, state: MPS) -> np.ndarray:
        """Vector of <X_q>, <Y_q>, <Z_q> for every qubit of an encoded state."""
        ops = (pauli_x(), pauli_y(), pauli_z())
        values = np.empty(3 * state.num_qubits)
        k = 0
        for q in range(state.num_qubits):
            for op in ops:
                values[k] = float(np.real(state.expectation_single(q, op)))
                k += 1
        return values

    def project(self, X: np.ndarray) -> np.ndarray:
        """Projected feature matrix ``phi(X)`` of shape ``(n, 3 m)``.

        Encodes through the engine (cache-aware) and accumulates resource
        accounting: MPS simulation counters from the backend, wall time of
        the expectation-value sweeps, and bond-dimension / memory statistics
        of the encoded states.
        """
        assert self.engine is not None and self.backend is not None
        before = self.backend.lifetime_summary()
        states = self.engine.encode_rows(X)

        start = time.perf_counter()
        rows: List[np.ndarray] = [self.project_state(state) for state in states]
        projection_wall = time.perf_counter() - start

        after = self.backend.lifetime_summary()
        # The projection sweeps are the projected kernel's analogue of the
        # fidelity kernel's inner products: same transfer-matrix primitive,
        # 3m sweeps per encoded point.
        increments = {
            "simulation_time_s": after["wall_simulation_time_s"]
            - before["wall_simulation_time_s"],
            "inner_product_time_s": projection_wall,
            "num_simulations": float(after["num_simulations"] - before["num_simulations"]),
            "num_expectation_values": float(sum(3 * s.num_qubits for s in states)),
            "train_state_memory_bytes": float(sum(s.memory_bytes for s in states)),
        }
        for key, value in increments.items():
            self._resource[key] = self._resource.get(key, 0.0) + value
        self._resource["max_bond_dimension"] = max(
            self._resource.get("max_bond_dimension", 1.0),
            float(max((s.max_bond_dimension for s in states), default=1)),
        )
        return np.vstack(rows)

    # ------------------------------------------------------------------
    def fit(self, X_train: np.ndarray) -> "ProjectedQuantumKernel":
        """Project the training data and resolve the bandwidth."""
        proj = self.project(X_train)
        self._train_projections = proj
        if self.beta is not None:
            self._beta_resolved = self.beta
        else:
            diffs = proj[:, None, :] - proj[None, :, :]
            sq = np.sum(diffs * diffs, axis=-1)
            upper = sq[np.triu_indices_from(sq, k=1)]
            med = float(np.median(upper)) if upper.size else 1.0
            self._beta_resolved = 1.0 / med if med > 0 else 1.0
        return self

    def gram_matrix(self) -> np.ndarray:
        """Symmetric projected-kernel Gram matrix on the fitted training data."""
        if self._train_projections is None or self._beta_resolved is None:
            raise KernelError("ProjectedQuantumKernel is not fitted")
        return gaussian_gram_matrix(
            self._train_projections, None, self._beta_resolved
        )

    def cross_matrix(self, X_test: np.ndarray) -> np.ndarray:
        """Projected kernel between test points and the fitted training data."""
        if self._train_projections is None or self._beta_resolved is None:
            raise KernelError("ProjectedQuantumKernel is not fitted")
        proj_test = self.project(X_test)
        return gaussian_gram_matrix(
            proj_test, self._train_projections, self._beta_resolved
        )

    def resource_metrics(self) -> Dict[str, float]:
        """Accumulated resource accounting across every :meth:`project` call.

        Keys mirror the fidelity-kernel resource report where the concepts
        coincide (simulation timing, bond dimension, memory, counts); the
        quadratic phase is the Gaussian kernel on classical vectors, so the
        ``inner_product_time_s`` entry reports the expectation-value sweep
        time instead.
        """
        return dict(self._resource)
