"""Simulated GPU backend: the role pytket-cutensornet / cuTensorNet plays.

No physical GPU is available in this reproduction environment, so the GPU
backend executes exactly the same NumPy numerics as the CPU backend (which is
faithful to the paper: "both backends use the same MPS simulation algorithm"
and their bond dimensions match) and differs only in the device cost model
used to estimate wall-clock time on an NVIDIA A100: large per-call launch and
transfer overheads, but an order of magnitude higher throughput on large
contractions.  The CPU/GPU crossover analysis of Figure 5 / Table I is
performed on these modelled times.  See DESIGN.md, substitution 2.

Like every backend, it prices only the solo primitives (``simulate`` and
``inner_product``); its batched paths count and time.  The extended Fig. 5
study compares the two devices' stacked cross sweeps through
:func:`~repro.backends.preferred_cross_model`, on the cost models alone.
"""

from __future__ import annotations

from ..config import SimulationConfig
from .base import Backend
from .cost_model import GPU_COST_MODEL, DeviceCostModel

__all__ = ["SimulatedGpuBackend"]


class SimulatedGpuBackend(Backend):
    """MPS backend modelling an NVIDIA A100 GPU via an analytic cost model."""

    def __init__(
        self,
        config: SimulationConfig | None = None,
        cost_model: DeviceCostModel | None = None,
    ) -> None:
        super().__init__(config, cost_model or GPU_COST_MODEL)

    @property
    def name(self) -> str:
        return "gpu"
