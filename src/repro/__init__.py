"""repro: Quantum kernel models at scale with Matrix Product State simulation.

A from-scratch Python reproduction of "Realizing Quantum Kernel Models at
Scale with Matrix Product State Simulation" (Metcalf, Andrés-Martínez,
Fitzpatrick; SC 2024).  The package provides:

* an MPS circuit simulator with SVD truncation (:mod:`repro.mps`),
* a dense statevector simulator for validation (:mod:`repro.statevector`),
* the Ising feature-map circuit ansatz with SWAP routing
  (:mod:`repro.circuits`),
* a unified pairwise compute engine with a content-addressed MPS state
  cache, stacked encoding and block overlap sweeps (:mod:`repro.engine`),
* quantum fidelity / projected kernels and a Gaussian baseline
  (:mod:`repro.kernels`),
* a Nystrom low-rank approximation subsystem -- landmark selection, explicit
  feature maps, a primal linear SVM and streaming inference
  (:mod:`repro.approx`),
* a kernel SVM with metrics and model selection (:mod:`repro.svm`),
* a synthetic Elliptic-Bitcoin-like dataset (:mod:`repro.data`),
* distributed Gram-matrix strategies with communication accounting
  (:mod:`repro.parallel`),
* an async batch-coalescing serving queue with a cross-process shared
  landmark store (:mod:`repro.serving`),
* CPU and simulated-GPU backends with device cost models
  (:mod:`repro.backends`),
* an end-to-end classification pipeline (:mod:`repro.core`).

Quickstart
----------
>>> import numpy as np
>>> from repro import AnsatzConfig, QuantumKernelPipeline
>>> from repro.data import generate_elliptic_like, DatasetSpec, balanced_subsample
>>> from repro.svm import train_test_split
>>> data = balanced_subsample(
...     generate_elliptic_like(DatasetSpec(num_samples=400, num_features=6)), 40)
>>> Xtr, Xte, ytr, yte = train_test_split(data.features, data.labels, seed=0)
>>> pipeline = QuantumKernelPipeline(AnsatzConfig(num_features=6, gamma=0.5))
>>> result = pipeline.run(Xtr, ytr, Xte, yte)
>>> 0.0 <= result.test_auc <= 1.0
True
"""

from .config import (
    AnsatzConfig,
    ExperimentConfig,
    ServingConfig,
    SimulationConfig,
    SVMConfig,
    TuningConfig,
    DEFAULT_C_GRID,
)
from .engine import EngineConfig, KernelEngine, StateStore
from .exceptions import ReproError
from .mps import MPS, InstrumentedMPS, TruncationPolicy
from .circuits import Circuit, build_feature_map_circuit
from .kernels import QuantumKernel, GaussianKernel, ProjectedQuantumKernel
from .svm import PrecomputedKernelSVC
from .approx import (
    LinearSVC,
    NystroemConfig,
    NystroemFeatureMap,
    StreamingNystroemClassifier,
)
from .backends import CpuBackend, SimulatedGpuBackend, get_backend
from .serving import ServingHandle, serve
from .core import QuantumKernelPipeline, PipelineResult
from .core.experiment import ClassificationExperiment, run_classification_experiment

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "AnsatzConfig",
    "SimulationConfig",
    "SVMConfig",
    "ExperimentConfig",
    "ServingConfig",
    "TuningConfig",
    "DEFAULT_C_GRID",
    "serve",
    "ServingHandle",
    "ReproError",
    "EngineConfig",
    "KernelEngine",
    "StateStore",
    "MPS",
    "InstrumentedMPS",
    "TruncationPolicy",
    "Circuit",
    "build_feature_map_circuit",
    "QuantumKernel",
    "GaussianKernel",
    "ProjectedQuantumKernel",
    "PrecomputedKernelSVC",
    "LinearSVC",
    "NystroemConfig",
    "NystroemFeatureMap",
    "StreamingNystroemClassifier",
    "CpuBackend",
    "SimulatedGpuBackend",
    "get_backend",
    "QuantumKernelPipeline",
    "PipelineResult",
    "ClassificationExperiment",
    "run_classification_experiment",
]
