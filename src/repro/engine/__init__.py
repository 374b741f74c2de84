"""Unified kernel compute engine.

One compute core for every pairwise-overlap workload in the library:

* :mod:`~repro.engine.cache` -- a content-addressed :class:`StateStore` for
  encoded MPS keyed by (feature-row bytes, ansatz fingerprint, truncation
  policy), with LRU eviction under a byte budget and hit/miss statistics;
* :mod:`~repro.engine.batching` -- the :class:`StackedStateBlock` overlap
  sweep, which pads a set of states once to one per-site bond dimension and
  sweeps queries against it with BLAS, plus the per-pair reference
  :func:`batched_overlaps`;
* :mod:`~repro.engine.engine` -- the :class:`KernelEngine` facade: one
  encode path and one overlap path, the block sweep (a triangular one for
  the Gram), configured by :class:`EngineConfig` (the state store).

The kernels, pipeline, inference and distributed layers all dispatch through
:class:`KernelEngine`; no other module hand-rolls the pairwise loop.
"""

from .batching import (
    StackedStateBlock,
    batched_overlaps,
    encode_circuits,
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
from .engine import EngineConfig, EngineResult, KernelEngine

__all__ = [
    "CacheStats",
    "StateStore",
    "ansatz_fingerprint",
    "simulation_fingerprint",
    "state_key",
    "serialize_states",
    "deserialize_states",
    "batched_overlaps",
    "StackedStateBlock",
    "encode_circuits",
    "rowwise_matmul",
    "EngineConfig",
    "EngineResult",
    "KernelEngine",
]
