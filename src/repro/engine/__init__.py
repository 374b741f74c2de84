"""Unified kernel compute engine.

One compute core for every pairwise-overlap workload in the library:

* :mod:`~repro.engine.plan` -- declarative pairwise work plans
  (:class:`SymmetricGramPlan`, :class:`CrossGramPlan`,
  :class:`KernelRowPlan`) that enumerate overlap jobs once, exploiting
  symmetry by construction;
* :mod:`~repro.engine.cache` -- a content-addressed :class:`StateStore` for
  encoded MPS keyed by (feature-row bytes, ansatz fingerprint, truncation
  policy), with LRU eviction under a byte budget and hit/miss statistics;
* :mod:`~repro.engine.batching` -- chunked overlap evaluation that pads
  every state to one per-site bond dimension and sweeps it with BLAS;
* :mod:`~repro.engine.engine` -- the :class:`KernelEngine` facade: one
  encode path and one overlap path per plan shape, configured by
  :class:`EngineConfig` (cache and batch sizes).

The kernels, pipeline, inference and distributed layers all dispatch through
:class:`KernelEngine`; no other module hand-rolls the pairwise loop.
"""

from .batching import (
    GateShapeLog,
    StackedStateBlock,
    batched_overlaps,
    circuit_structure_signature,
    encode_circuits,
    group_circuits_by_structure,
    rowwise_matmul,
)
from .cache import (
    CacheStats,
    StateStore,
    ansatz_fingerprint,
    deserialize_states,
    serialize_states,
    simulation_fingerprint,
    state_key,
)
from .plan import (
    CrossGramPlan,
    KernelRowPlan,
    PairJob,
    PairwisePlan,
    SymmetricGramPlan,
)
from .engine import EngineConfig, EngineResult, KernelEngine

__all__ = [
    "PairJob",
    "PairwisePlan",
    "SymmetricGramPlan",
    "CrossGramPlan",
    "KernelRowPlan",
    "CacheStats",
    "StateStore",
    "ansatz_fingerprint",
    "simulation_fingerprint",
    "state_key",
    "serialize_states",
    "deserialize_states",
    "batched_overlaps",
    "StackedStateBlock",
    "GateShapeLog",
    "circuit_structure_signature",
    "encode_circuits",
    "group_circuits_by_structure",
    "rowwise_matmul",
    "EngineConfig",
    "EngineResult",
    "KernelEngine",
]
