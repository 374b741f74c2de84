"""Global configuration objects and deterministic seeding helpers.

The paper's experiments are described by a handful of hyper-parameters that
recur across every figure and table:

* ``m``      -- number of features / qubits,
* ``d``      -- interaction distance on the linear chain,
* ``r``      -- number of ansatz layers (circuit repetitions),
* ``gamma``  -- kernel bandwidth coefficient,
* the SVD truncation cut-off (``1e-16`` in the paper, i.e. machine precision).

:class:`SimulationConfig` collects the simulator-facing knobs and
:class:`AnsatzConfig` the feature-map knobs.  Both are frozen dataclasses so
that experiment records can safely hash / compare them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Any, Mapping

import numpy as np

from .exceptions import ConfigurationError

#: Default truncation threshold used by the paper: singular values are removed
#: while the accumulated squared weight stays below 64-bit machine epsilon.
DEFAULT_TRUNCATION_CUTOFF: float = 1e-16

#: Hard ceiling on the virtual bond dimension.  ``None`` means unbounded;
#: benchmarks use a finite ceiling so runaway configurations fail fast.
DEFAULT_MAX_BOND_DIM: int | None = None


def make_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed-like value.

    Accepts ``None`` (fresh entropy), an integer seed, or an existing
    generator (returned unchanged) so that every public API can take a
    uniform ``seed`` argument.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of the MPS simulator.

    Parameters
    ----------
    truncation_cutoff:
        Upper bound on the *accumulated* squared singular values discarded in
        a single SVD truncation, matching equation (8) of the paper.  The
        default of ``1e-16`` keeps truncation error at the level of 64-bit
        floating point noise.
    max_bond_dim:
        Optional hard cap on the virtual bond dimension ``chi``.  When the
        cap forces a truncation above ``truncation_cutoff`` the simulator
        raises unless ``allow_lossy_cap`` is set.
    allow_lossy_cap:
        If ``True``, capping the bond dimension is allowed to exceed the
        error budget (useful for deliberately approximate simulation).
    dtype:
        Complex dtype used for all tensors.
    track_memory:
        Record the MPS memory footprint after every gate application.
    """

    truncation_cutoff: float = DEFAULT_TRUNCATION_CUTOFF
    max_bond_dim: int | None = DEFAULT_MAX_BOND_DIM
    allow_lossy_cap: bool = False
    dtype: Any = np.complex128
    track_memory: bool = False

    def __post_init__(self) -> None:
        if self.truncation_cutoff < 0:
            raise ConfigurationError(
                f"truncation_cutoff must be non-negative, got {self.truncation_cutoff}"
            )
        if self.max_bond_dim is not None and self.max_bond_dim < 1:
            raise ConfigurationError(
                f"max_bond_dim must be a positive integer or None, got {self.max_bond_dim}"
            )
        dt = np.dtype(self.dtype)
        if dt.kind != "c":
            raise ConfigurationError(f"dtype must be complex, got {dt}")

    def to_dict(self) -> dict[str, Any]:
        """Return a JSON-friendly dictionary of the configuration."""
        d = asdict(self)
        d["dtype"] = np.dtype(self.dtype).name
        return d


@dataclass(frozen=True)
class AnsatzConfig:
    """Hyper-parameters of the Ising feature-map ansatz (paper section II-C).

    Parameters
    ----------
    num_features:
        Number of features ``m``; the circuit uses one qubit per feature.
    interaction_distance:
        Maximum distance ``d`` between interacting qubits on the linear
        chain.  ``d = 1`` is nearest-neighbour only.
    layers:
        Number of repetitions ``r`` of ``exp(-i H_XX) exp(-i H_Z)``.
    gamma:
        Kernel bandwidth coefficient multiplying the Hamiltonian terms.
    """

    num_features: int
    interaction_distance: int = 1
    layers: int = 2
    gamma: float = 0.1

    def __post_init__(self) -> None:
        if self.num_features < 1:
            raise ConfigurationError(
                f"num_features must be >= 1, got {self.num_features}"
            )
        if not (1 <= self.interaction_distance):
            raise ConfigurationError(
                f"interaction_distance must be >= 1, got {self.interaction_distance}"
            )
        if self.interaction_distance >= self.num_features and self.num_features > 1:
            raise ConfigurationError(
                "interaction_distance must be smaller than the number of qubits: "
                f"d={self.interaction_distance}, m={self.num_features}"
            )
        if self.layers < 1:
            raise ConfigurationError(f"layers must be >= 1, got {self.layers}")
        if self.gamma <= 0:
            raise ConfigurationError(f"gamma must be positive, got {self.gamma}")

    @property
    def num_qubits(self) -> int:
        """Alias: the circuit uses one qubit per feature."""
        return self.num_features

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class SVMConfig:
    """Configuration of the kernel SVM training used for every ML experiment.

    The paper sweeps the regularisation parameter ``C`` in ``[0.01, 4]`` with
    tolerance ``1e-3`` and picks the best AUC over the grid.
    """

    C: float = 1.0
    tol: float = 1e-3
    max_iter: int = 20_000

    def __post_init__(self) -> None:
        if self.C <= 0:
            raise ConfigurationError(f"C must be positive, got {self.C}")
        if self.tol <= 0:
            raise ConfigurationError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigurationError(f"max_iter must be >= 1, got {self.max_iter}")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class TuningConfig:
    """The two performance knobs of the serving tier.

    A fleet reads them once, when it is built, and they stay fixed while it
    runs: nothing retunes a live fleet.  Predictions never depend on them --
    only latency, throughput and which requests are shed do.

    Parameters
    ----------
    max_batch:
        Most requests one flush of a replica queue scores.  The coalescer
        is work-conserving: it flushes whatever is pending, up to this many,
        as soon as it is idle, so there is no wait to tune.
    queue_depth_high_water:
        Load-shedding threshold of the replica router; ``None`` disables
        shedding.
    """

    max_batch: int = 32
    queue_depth_high_water: int | None = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if (
            self.queue_depth_high_water is not None
            and self.queue_depth_high_water < 1
        ):
            raise ConfigurationError(
                "queue_depth_high_water must be >= 1 or None, got "
                f"{self.queue_depth_high_water}"
            )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class ServingConfig:
    """Deployment-facing knobs of the durable serving tier.

    One declarative bundle for everything between a fitted model and a
    traffic-ready fleet: the performance knobs (``tuning``, a nested
    :class:`TuningConfig`, fixed for the fleet's lifetime), the replica
    fleet (``num_replicas`` / ``routing_policy``), durability
    (``snapshot_root`` plus the warm-up key budget) and the response memo.
    Consumed by :meth:`repro.serving.ReplicaRouter.from_config` and
    :func:`repro.serve`.
    """

    num_replicas: int = 1
    routing_policy: str = "round-robin"
    snapshot_root: str | None = None
    warm_max_keys: int | None = None
    tuning: TuningConfig = field(default_factory=TuningConfig)
    memoize: bool = True

    def __post_init__(self) -> None:
        if self.num_replicas < 1:
            raise ConfigurationError(
                f"num_replicas must be >= 1, got {self.num_replicas}"
            )
        if self.warm_max_keys is not None and self.warm_max_keys < 0:
            raise ConfigurationError(
                f"warm_max_keys must be >= 0 or None, got {self.warm_max_keys}"
            )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


#: The regularisation grid the paper scans for every reported metric.
DEFAULT_C_GRID: tuple[float, ...] = (0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Bundle of all hyper-parameters describing one end-to-end experiment."""

    ansatz: AnsatzConfig
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    svm_c_grid: tuple[float, ...] = DEFAULT_C_GRID
    svm_tol: float = 1e-3
    train_size: int = 64
    test_size: int = 16
    seed: int = 7

    def __post_init__(self) -> None:
        if self.train_size < 2:
            raise ConfigurationError("train_size must be >= 2")
        if self.test_size < 1:
            raise ConfigurationError("test_size must be >= 1")
        if not self.svm_c_grid:
            raise ConfigurationError("svm_c_grid must not be empty")
        if any(c <= 0 for c in self.svm_c_grid):
            raise ConfigurationError("all C values must be positive")

    def to_dict(self) -> dict[str, Any]:
        return {
            "ansatz": self.ansatz.to_dict(),
            "simulation": self.simulation.to_dict(),
            "svm_c_grid": list(self.svm_c_grid),
            "svm_tol": self.svm_tol,
            "train_size": self.train_size,
            "test_size": self.test_size,
            "seed": self.seed,
        }


def config_from_mapping(mapping: Mapping[str, Any]) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a plain nested mapping.

    This is the inverse of :meth:`ExperimentConfig.to_dict` modulo dtype
    normalisation and is used by the benchmark harness to replay experiment
    definitions stored as JSON.
    """
    ansatz = AnsatzConfig(**dict(mapping["ansatz"]))
    sim_map = dict(mapping.get("simulation", {}))
    if "dtype" in sim_map and isinstance(sim_map["dtype"], str):
        sim_map["dtype"] = np.dtype(sim_map["dtype"])
    simulation = SimulationConfig(**sim_map)
    return ExperimentConfig(
        ansatz=ansatz,
        simulation=simulation,
        svm_c_grid=tuple(mapping.get("svm_c_grid", DEFAULT_C_GRID)),
        svm_tol=float(mapping.get("svm_tol", 1e-3)),
        train_size=int(mapping.get("train_size", 64)),
        test_size=int(mapping.get("test_size", 16)),
        seed=int(mapping.get("seed", 7)),
    )
