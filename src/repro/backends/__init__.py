"""Simulation backends: CPU and (simulated) GPU.

The paper compares two implementations of the identical MPS algorithm:
ITensors on AMD EPYC CPUs and pytket-cutensornet (cuTensorNet) on NVIDIA
A100 GPUs, finding a runtime crossover once the bond dimension grows past
``chi ~ 320`` (interaction distance ``d ~ 10``).

In this reproduction both backends execute the same NumPy numerics (so every
result is bit-for-bit backend independent, mirroring the paper's observation
that the bond dimensions of the two backends match).  What differs is the
*device cost model*: each backend reports a modelled wall-clock time for
every solo MPS simulation (``simulate``) and solo inner product
(``inner_product``) -- the primitives the paper times one at a time --
computed from calibrated per-device constants (per-gate launch overhead,
effective FLOP rate, host-device transfer overhead).  The batched paths the
engine runs (``simulate_batch``, ``inner_product_block``,
``inner_product_batch``) only count and time.  The crossover analysis of
Figure 5 / Table I is carried out on the modelled times, while the
correctness-facing results (kernels, classification metrics) use the actual
numerics and are identical across backends.
"""

from .base import (
    Backend,
    BackendResult,
    BatchInnerProductResult,
    BatchSimulationResult,
    InnerProductResult,
)
from .cost_model import (
    DeviceCostModel,
    CPU_COST_MODEL,
    GPU_COST_MODEL,
    preferred_cross_model,
)
from .cpu import CpuBackend
from .gpu import SimulatedGpuBackend
from .registry import available_backends, get_backend

__all__ = [
    "Backend",
    "BackendResult",
    "BatchInnerProductResult",
    "BatchSimulationResult",
    "InnerProductResult",
    "DeviceCostModel",
    "CPU_COST_MODEL",
    "GPU_COST_MODEL",
    "preferred_cross_model",
    "CpuBackend",
    "SimulatedGpuBackend",
    "available_backends",
    "get_backend",
]
