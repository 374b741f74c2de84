"""Exception hierarchy for the :mod:`repro` library.

Every error raised intentionally by the library derives from
:class:`ReproError` so that callers can catch library failures with a single
``except`` clause while still letting genuine programming errors (``TypeError``
from NumPy, etc.) propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """Raised when a configuration object contains invalid values."""


class CircuitError(ReproError):
    """Raised for malformed circuits or gates (bad qubit indices, arity...)."""


class RoutingError(CircuitError):
    """Raised when a circuit cannot be routed onto the linear chain."""


class SimulationError(ReproError):
    """Raised when an MPS or statevector simulation cannot proceed."""


class TruncationError(SimulationError):
    """Raised when SVD truncation would exceed the configured error budget."""


class BondDimensionError(SimulationError):
    """Raised when a virtual bond exceeds the configured hard maximum."""


class KernelError(ReproError):
    """Raised for invalid kernel computations (shape mismatch, non-PSD...)."""


class EngineError(ReproError):
    """Raised by the unified kernel compute engine (blocks, cache, config)."""


class SVMError(ReproError):
    """Raised when SVM training or prediction receives invalid input."""


class ConvergenceError(SVMError):
    """Raised when the SMO optimiser fails to converge within its budget."""


class DataError(ReproError):
    """Raised by the data pipeline for invalid datasets or splits."""


class ParallelError(ReproError):
    """Raised by the distributed Gram-matrix machinery."""


class CommunicationError(ParallelError):
    """Raised when the simulated communicator is used incorrectly."""


class TilingError(ParallelError):
    """Raised when a Gram matrix cannot be tiled as requested."""


class BackendError(ReproError):
    """Raised when a simulation backend is misconfigured or unavailable."""


class TelemetryError(ReproError):
    """Raised by the telemetry subsystem (registry misuse, malformed export)."""


class ServingError(ReproError):
    """Raised by the async serving layer (queue misuse, closed service)."""


class PersistenceError(ServingError):
    """Raised by the durable snapshot tier (corrupt payloads, bad manifests)."""


class LoadShedError(ServingError):
    """Raised when the replica router rejects a request under overload."""


class DriftError(ReproError):
    """Raised by the online drift-adaptation controller (bad config, a
    shadow fit without enough fresh labelled traffic, invalid swap)."""
