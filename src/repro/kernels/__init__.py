"""Kernel construction: the quantum fidelity kernel and classical baselines.

Both quantum kernel families are thin wrappers over the unified
:class:`repro.engine.KernelEngine`: encoding, state caching, symmetry
exploitation and batched overlap evaluation live in :mod:`repro.engine`, and
this package only defines the kernel semantics on top.

* :class:`~repro.kernels.quantum_kernel.QuantumKernel` encodes each data
  point with the feature-map ansatz via the engine and fills the Gram matrix
  with squared state overlaps ``K_ij = |<psi(x_i)|psi(x_j)>|^2`` (equation
  (1) of the paper) through :meth:`~repro.engine.KernelEngine.gram` (a
  triangular sweep of the states' :class:`~repro.engine.StackedStateBlock`)
  and :meth:`~repro.engine.KernelEngine.cross`.
* :class:`~repro.kernels.gaussian.GaussianKernel` is the paper's classical
  baseline ``exp(-alpha |x - x'|^2)`` with the ``alpha = 1 / (m var(X))``
  bandwidth convention.
* :class:`~repro.kernels.projected.ProjectedQuantumKernel` implements the
  projected-kernel alternative mentioned in the introduction (local
  observables instead of overlaps).
* :mod:`~repro.kernels.analysis` provides kernel-concentration and spectrum
  diagnostics used by the Table III depth study.
"""

from .quantum_kernel import QuantumKernel, QuantumKernelResult
from .gaussian import GaussianKernel, gaussian_gram_matrix, median_heuristic_bandwidth
from .projected import ProjectedQuantumKernel
from .analysis import (
    kernel_concentration,
    kernel_alignment,
    is_positive_semidefinite,
    kernel_spectrum,
    effective_dimension,
)

__all__ = [
    "QuantumKernel",
    "QuantumKernelResult",
    "GaussianKernel",
    "gaussian_gram_matrix",
    "median_heuristic_bandwidth",
    "ProjectedQuantumKernel",
    "kernel_concentration",
    "kernel_alignment",
    "is_positive_semidefinite",
    "kernel_spectrum",
    "effective_dimension",
]
