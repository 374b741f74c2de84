"""CPU backend: the role ITensors plays in the paper.

Runs the shared MPS numerics directly with NumPy and charges time with the
CPU device cost model (:data:`repro.backends.cost_model.CPU_COST_MODEL`).
Batched encodes (:meth:`~repro.backends.Backend.simulate_batch`) share the
layer-MPO encode with the GPU backend; like every batched path they are
counted and timed, not priced.
"""

from __future__ import annotations

from ..config import SimulationConfig
from .base import Backend
from .cost_model import CPU_COST_MODEL, DeviceCostModel

__all__ = ["CpuBackend"]


class CpuBackend(Backend):
    """MPS backend modelling a single high-end CPU (AMD EPYC 7763 class)."""

    def __init__(
        self,
        config: SimulationConfig | None = None,
        cost_model: DeviceCostModel | None = None,
    ) -> None:
        super().__init__(config, cost_model or CPU_COST_MODEL)

    @property
    def name(self) -> str:
        return "cpu"
