"""Simulated GPU backend: the role pytket-cutensornet / cuTensorNet plays.

No physical GPU is available in this reproduction environment, so the GPU
backend executes exactly the same NumPy numerics as the CPU backend (which is
faithful to the paper: "both backends use the same MPS simulation algorithm"
and their bond dimensions match) and differs only in the device cost model
used to estimate wall-clock time on an NVIDIA A100: large per-call launch and
transfer overheads, but an order of magnitude higher throughput on large
contractions.  The CPU/GPU crossover analysis of Figure 5 / Table I is
performed on these modelled times.  See DESIGN.md, substitution 2.

Batched encodes (:meth:`~repro.backends.Backend.simulate_batch`) matter most
here: the A100 model's large per-call launch overhead is charged once per
stacked contraction instead of once per point, which is exactly the regime
(small ``chi``, overhead-dominated) where the paper's Fig. 5 shows the GPU
losing to the CPU -- the batched cost-model entries let the crossover study
quantify how much stacking recovers.

The same logic routes the Nystrom ``K_nm`` cross block here: a
:class:`~repro.engine.KernelEngine` constructed with ``cross_backend=
SimulatedGpuBackend(...)`` compares
:meth:`DeviceCostModel.batched_inner_product_time` across its two devices and
dispatches the padded cross sweep (:meth:`~repro.backends.Backend.
inner_product_block`, two BLAS matmuls per site) to whichever model
predicts the cheaper block -- the modelled, not hardcoded, CPU/GPU crossover
decision of the extended Fig. 5 study.  Numerics are NumPy either way, so
the dispatch never moves a bit of any kernel entry.
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
