"""The :class:`KernelEngine` facade: one compute core for all pairwise work.

Every kernel-matrix computation in the library -- training Gram matrices,
test-versus-train cross matrices, inference kernel rows -- is the same two
primitives composed: encode data points to MPS (linear in ``N``), evaluate
pairwise overlaps (quadratic in ``N``).  The engine owns both primitives,
each with exactly one code path, so consumers ask for a Gram
(:meth:`KernelEngine.gram`) or a rectangular block (:meth:`KernelEngine.cross`
/ :meth:`KernelEngine.kernel_rows`) and never say *how*:

* :meth:`KernelEngine.encode_rows` goes through an optional
  content-addressed :class:`~repro.engine.cache.StateStore`, so a point
  encoded for training is never re-simulated at inference time; the
  remaining cache misses run as stacked gate sweeps
  (:meth:`repro.backends.Backend.simulate_batch`) fed by gate stacks built
  from the ansatz's angle table; a row's state depends on the row alone,
  byte for byte, and is within rounding of per-point simulation;
* every overlap runs through the backend's padded BLAS transfer sweep
  against one pre-stacked :class:`StackedStateBlock`
  (:meth:`repro.backends.Backend.inner_product_block`): cross blocks and
  kernel rows sweep each row against the whole block, and the Gram sweeps
  each state against the tail of its own block, so only the strict upper
  triangle is evaluated.

Every result carries two timing models: the measured wall time and the
per-point modelled device time of the backend's cost model.

:class:`repro.kernels.QuantumKernel`,
:class:`repro.kernels.ProjectedQuantumKernel`,
:class:`repro.core.QuantumKernelPipeline` and
:class:`repro.core.QuantumKernelInferenceEngine` are all thin layers over
this class.  The paper's distributed strategies live in
:mod:`repro.parallel`, which drives the same engine per simulated process.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..backends import Backend, BackendResult, CpuBackend
# ``build_feature_map_circuit`` is no longer called here; the name stays for
# tracers that patch it on this module (perfbench's layer tracer does).
from ..circuits import build_feature_map_circuit, feature_map_gate_stacks  # noqa: F401
from ..config import AnsatzConfig, SimulationConfig
from ..exceptions import ConfigurationError, EngineError, KernelError
from ..mps import MPS
from ..telemetry.tracing import TRACER
from .batching import StackedStateBlock
from .cache import StateStore, ansatz_fingerprint, simulation_fingerprint, state_key

__all__ = ["EngineConfig", "EngineResult", "KernelEngine"]

@dataclass(frozen=True)
class EngineConfig:
    """Knobs of the unified kernel engine.

    Parameters
    ----------
    use_cache:
        Enable the content-addressed :class:`StateStore` for encodes.
    cache_bytes:
        LRU byte budget of the store (``None`` = unbounded).
    encode_batch_size:
        Maximum circuits per stacked encoding sweep.
    """

    use_cache: bool = False
    cache_bytes: Optional[int] = None
    encode_batch_size: int = 32

    def __post_init__(self) -> None:
        if self.encode_batch_size < 1:
            raise EngineError(
                f"encode_batch_size must be >= 1, got {self.encode_batch_size}"
            )


@dataclass(frozen=True)
class EngineResult:
    """One engine call: the kernel matrix plus full cost accounting."""

    matrix: np.ndarray
    simulation_time_s: float
    inner_product_time_s: float
    modelled_simulation_time_s: float
    modelled_inner_product_time_s: float
    max_bond_dimension: int
    total_state_memory_bytes: int
    num_simulations: int
    num_inner_products: int
    cache_hits: int
    cache_misses: int
    states: Tuple[MPS, ...] = field(repr=False)
    #: The Gram's padded, stacked ``states`` (``None`` for other calls):
    #: the block exact-model scoring sweeps new rows against.
    block: Optional[StackedStateBlock] = field(default=None, repr=False)

    @property
    def total_time_s(self) -> float:
        """Measured wall-clock total of both primitives."""
        return self.simulation_time_s + self.inner_product_time_s

    @property
    def modelled_total_time_s(self) -> float:
        """Modelled device total, one launch per *point* (batching-invariant).

        Every simulation and every overlap is charged as if it ran alone,
        so the total does not depend on how the work was batched.
        """
        return self.modelled_simulation_time_s + self.modelled_inner_product_time_s


class KernelEngine:
    """Unified pairwise-overlap compute core.

    Parameters
    ----------
    ansatz:
        Feature-map hyper-parameters shared by every encode.
    backend:
        MPS simulation backend; defaults to a fresh :class:`CpuBackend`.
    simulation:
        Simulation configuration for a default backend.
    config:
        Engine configuration (cache, batching).
    store:
        Externally owned :class:`StateStore`; overrides ``config.use_cache``
        so several engines (or a serving layer) can share one cache.
    """

    def __init__(
        self,
        ansatz: AnsatzConfig,
        backend: Backend | None = None,
        simulation: SimulationConfig | None = None,
        config: EngineConfig | None = None,
        store: StateStore | None = None,
    ) -> None:
        self.ansatz = ansatz
        if backend is None:
            backend = CpuBackend(simulation)
        self.backend = backend
        self.config = config if config is not None else EngineConfig()
        if store is not None:
            self.store: StateStore | None = store
        elif self.config.use_cache:
            self.store = StateStore(max_bytes=self.config.cache_bytes)
        else:
            self.store = None
        self._ansatz_fp = ansatz_fingerprint(ansatz)
        self._simulation_fp = simulation_fingerprint(self.backend.config)

    @property
    def fingerprint(self) -> str:
        """Stable identity of this engine's compute policy.

        Combines the ansatz and simulation fingerprints that key the state
        store, so two engines share cache entries -- and may exchange
        persisted snapshots -- exactly when their fingerprints match.
        """
        return f"{self._ansatz_fp}|{self._simulation_fp}"

    @classmethod
    def from_worker_kwargs(
        cls,
        ansatz_kwargs: dict,
        simulation_kwargs: dict,
        backend_name: str = "cpu",
        config: "EngineConfig | None" = None,
        store: StateStore | None = None,
    ) -> "KernelEngine":
        """Rebuild an engine from the plain-dict description shipped to workers.

        Worker processes receive only picklable primitives: the ansatz and
        simulation configurations as ``to_dict()`` mappings (``dtype`` may
        arrive as a string) plus the backend registry name.  Serving pool
        workers and every model rebuilt from a serving payload reconstruct
        their engine through this single entry point, so config-rehydration
        rules live in one place.  A setting neither configuration knows --
        say one a newer or older release wrote into a payload -- raises
        :class:`~repro.exceptions.ConfigurationError` naming it.
        """
        from ..backends import get_backend

        for config_cls, kwargs in (
            (AnsatzConfig, ansatz_kwargs),
            (SimulationConfig, simulation_kwargs),
        ):
            unknown = sorted(set(kwargs) - {f.name for f in fields(config_cls)})
            if unknown:
                raise ConfigurationError(
                    f"{config_cls.__name__} has no setting(s) {unknown}: the "
                    "payload was written by an incompatible release; re-export it"
                )
        sim_kwargs = dict(simulation_kwargs)
        if "dtype" in sim_kwargs and isinstance(sim_kwargs["dtype"], str):
            sim_kwargs["dtype"] = np.dtype(sim_kwargs["dtype"])
        backend = get_backend(backend_name, SimulationConfig(**sim_kwargs))
        return cls(
            AnsatzConfig(**ansatz_kwargs), backend=backend, config=config, store=store
        )

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def validate_features(self, X: np.ndarray) -> np.ndarray:
        """Coerce ``X`` to a finite 2-D float matrix matching the ansatz width."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.ndim != 2:
            raise KernelError(f"feature matrix must be 2-D, got shape {X.shape}")
        if X.shape[1] != self.ansatz.num_features:
            raise KernelError(
                f"expected {self.ansatz.num_features} features, got {X.shape[1]}"
            )
        if X.shape[0] == 0:
            raise KernelError("feature matrix has no rows")
        if not np.isfinite(X).all():
            raise KernelError("feature matrix has a NaN or infinite value")
        return X

    def simulate_row(self, row: np.ndarray) -> BackendResult:
        """Uncached per-point simulation of one row (full :class:`BackendResult`).

        The distributed strategies charge every re-simulation to the process
        that performs it, so this path deliberately bypasses the store.  It
        simulates, one unpadded MPS gate at a time, the same steps the
        stacked sweep takes (:func:`~repro.circuits.feature_map_gate_stacks`):
        the per-point reference of :meth:`encode_row`, with the same kept
        ranks at every step and a state within rounding of it
        (``1 - |<a|b>|^2 <= 1e-12`` at the default cutoff) but not
        byte-equal to it.
        """
        stacks = feature_map_gate_stacks(np.asarray(row, dtype=float)[None, :], self.ansatz)
        return self.backend._simulate_steps(stacks.num_qubits, stacks.row(0))

    def encode_row(self, row: np.ndarray) -> MPS:
        """Encode one feature row, through the state store when enabled.

        A miss runs the stacked sweep of :meth:`encode_rows` on this row
        alone, so the state is byte-identical to the one any batched encode
        gives the same row.
        """
        if self.store is None:
            return self._sweep(np.asarray(row, dtype=float)[None, :])[0]
        key = state_key(row, self._ansatz_fp, self._simulation_fp)
        cached = self.store.get(key)
        if cached is not None:
            return cached
        state = self._sweep(np.asarray(row, dtype=float)[None, :])[0]
        self.store.put(key, state)
        return state

    def encode_rows(self, X: np.ndarray) -> List[MPS]:
        """Encode every row of ``X`` (validated) to an MPS.

        A single row goes through :meth:`encode_row`.  Multi-row encodes run
        through the backend's stacked gate sweep
        (:meth:`repro.backends.Backend.simulate_batch`), cache-aware: rows
        already in the state store are served from it and **only the misses**
        are simulated, all in one sweep per ``encode_batch_size`` chunk.
        A row's state depends on the row alone (the sweep pads every row to
        shapes its ansatz and its own ranks fix), so the returned states are
        byte-identical under any cache occupancy, chunking, batch
        composition or order, and to :meth:`encode_row`.
        """
        X = self.validate_features(X)
        if X.shape[0] == 1:
            return [self.encode_row(X[0])]
        if self.store is None:
            states: List[MPS | None] = [None] * X.shape[0]
            self._encode_batched(X, range(X.shape[0]), states)
            return [s for s in states if s is not None]
        return self._encode_rows_cached(X)

    def _encode_rows_cached(self, X: np.ndarray) -> List[MPS]:
        """Store-aware batched encode preserving ``encode_row`` semantics.

        First pass: look every row up in the store (counting hits/misses
        exactly as row-by-row encoding would).  Unseen rows are batch-encoded
        and inserted; rows that duplicate an earlier miss within the same
        call are then re-resolved from the store -- a hit, matching what the
        sequential path records -- with a per-row fallback if eviction raced
        the insert.
        """
        assert self.store is not None
        n = X.shape[0]
        states: List[MPS | None] = [None] * n
        pending: List[int] = []
        pending_keys = set()
        deferred: List[int] = []
        keys = [
            state_key(row, self._ansatz_fp, self._simulation_fp) for row in X
        ]
        for i in range(n):
            if keys[i] in pending_keys:
                # A duplicate of an earlier miss in this same call: resolve it
                # after the batch encode, so its single store lookup is the
                # hit the sequential path would record.
                deferred.append(i)
                continue
            cached = self.store.get(keys[i])
            if cached is not None:
                states[i] = cached
            else:
                pending.append(i)
                pending_keys.add(keys[i])
        self._encode_batched(X, pending, states)
        for i in pending:
            state = states[i]
            if state is not None:
                self.store.put(keys[i], state)
        for i in deferred:
            cached = self.store.get(keys[i])
            states[i] = cached if cached is not None else self.encode_row(X[i])
        return [s for s in states if s is not None]

    def _encode_batched(
        self,
        X: np.ndarray,
        indices: Iterable[int],
        states: List["MPS | None"],
    ) -> None:
        """Encode the selected rows through stacked sweeps, filling ``states``.

        Each chunk's circuits go to the backend as gate stacks built from
        the chunk's angle table; no per-row circuit object is made.
        """
        indices = list(indices)
        chunk_size = self.config.encode_batch_size
        for lo in range(0, len(indices), chunk_size):
            chunk = indices[lo : lo + chunk_size]
            for i, state in zip(chunk, self._sweep(X[chunk])):
                states[i] = state

    def _sweep(self, X: np.ndarray) -> Tuple[MPS, ...]:
        """One stacked encode of the rows of ``X``, from the angle table."""
        return self.backend.simulate_batch(
            feature_map_gate_stacks(X, self.ansatz)
        ).states

    def cache_stats(self):
        """Store statistics, or ``None`` when caching is disabled."""
        return self.store.stats() if self.store is not None else None

    # ------------------------------------------------------------------
    # High-level entry points
    # ------------------------------------------------------------------
    def gram(self, X: np.ndarray) -> EngineResult:
        """Symmetric training Gram matrix ``K_ij = |<psi_i|psi_j>|^2``.

        The states are stacked once into a :class:`StackedStateBlock`; state
        ``i`` is swept against the block's tail ``j > i``
        (:meth:`~repro.backends.Backend.inner_product_block` on
        :meth:`StackedStateBlock.tail`), and the strict upper triangle is
        mirrored onto a unit diagonal.  That is ``n (n - 1) / 2`` overlaps,
        each the same bytes as the per-pair
        :func:`~repro.engine.batched_overlaps` value.

        Resets the backend counters first, so the result's accounting covers
        exactly this computation (matching the historical semantics of
        ``QuantumKernel.gram_matrix``).  The block is returned as
        :attr:`EngineResult.block`, so a model fitted on this Gram scores
        new rows against it without stacking the states again.
        """
        X = self.validate_features(X)
        self.backend.reset_counters()
        hits0, misses0 = self._cache_counts()
        states = self.encode_rows(X)
        n = len(states)
        K = np.eye(n)
        block = StackedStateBlock(states)
        for i in range(n - 1):
            result = self.backend.inner_product_block([states[i]], block.tail(i + 1))
            K[i, i + 1 :] = np.abs(result.values[0]) ** 2
        lower = np.tril_indices(n, -1)
        K[lower] = K.T[lower]
        return self._result_from_counters(K, states, hits0, misses0, block)

    def cross(
        self,
        X_rows: np.ndarray,
        train_states: Sequence[MPS],
        block: StackedStateBlock | None = None,
    ) -> EngineResult:
        """Rectangular kernel between new rows and stored training states.

        Covers the Nystrom ``K_nm`` fit block and bulk test-versus-train
        scoring.  The whole block runs as one padded sweep of the rows
        against a :class:`StackedStateBlock` of ``train_states``
        (:meth:`~repro.backends.Backend.inner_product_block`); its values are
        byte-identical to the Gram's entries for the same pairs.  Pass the
        block :meth:`gram` returned for ``train_states`` to skip stacking
        them again.  Same code, values and accounting as :meth:`kernel_rows`.
        """
        # Not via kernel_rows, so a profiler wrapping kernel_rows sees only
        # serving calls.
        return self._rectangular(X_rows, train_states, block)

    def kernel_rows(
        self,
        X_rows: np.ndarray,
        train_states: Sequence[MPS],
        block: StackedStateBlock | None = None,
    ) -> EngineResult:
        """Inference-time kernel rows against stored training states.

        The serving hot path, and the one rectangular path :meth:`cross`
        also runs.  Pass the ``train_states``' :class:`StackedStateBlock`
        (built once at fit time) to skip re-stacking it; the values are the
        same bytes either way.
        """
        return self._rectangular(X_rows, train_states, block)

    def _rectangular(
        self,
        X_rows: np.ndarray,
        train_states: Sequence[MPS],
        block: StackedStateBlock | None,
    ) -> EngineResult:
        if not train_states:
            raise KernelError("train_states must not be empty")
        if block is not None and block.num_states != len(train_states):
            raise EngineError(
                f"stacked block holds {block.num_states} states but "
                f"{len(train_states)} train states were given"
            )
        X_rows = self.validate_features(X_rows)
        self.backend.reset_counters()
        hits0, misses0 = self._cache_counts()
        with TRACER.span("engine.encode") as sp:
            row_states = self.encode_rows(X_rows)
            if sp is not None:
                sp.set_attribute("rows", len(row_states))
        with TRACER.span("engine.overlap") as sp:
            if block is None:
                block = StackedStateBlock(list(train_states))
            result = self.backend.inner_product_block(row_states, block)
            if sp is not None:
                sp.set_attribute("pairs", result.num_pairs)
        K = np.abs(result.values) ** 2
        return self._result_from_counters(K, row_states, hits0, misses0)

    def gram_and_cross(
        self, X_train: np.ndarray, X_test: np.ndarray
    ) -> Tuple[EngineResult, EngineResult]:
        """Training Gram matrix plus test cross matrix, train states shared.

        The training points are encoded once; the cross phase reuses the
        stored states exactly as the paper's inference procedure does.
        """
        train_result = self.gram(X_train)
        test_result = self.cross(X_test, train_result.states, block=train_result.block)
        return train_result, test_result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _cache_counts(self) -> Tuple[int, int]:
        if self.store is None:
            return 0, 0
        stats = self.store.stats()
        return stats.hits, stats.misses

    def _result_from_counters(
        self,
        K: np.ndarray,
        states: Sequence[MPS],
        hits0: int,
        misses0: int,
        block: StackedStateBlock | None = None,
    ) -> EngineResult:
        summary = self.backend.timing_summary()
        hits1, misses1 = self._cache_counts()
        return EngineResult(
            matrix=K,
            simulation_time_s=summary["wall_simulation_time_s"],
            inner_product_time_s=summary["wall_inner_product_time_s"],
            modelled_simulation_time_s=summary["modelled_simulation_time_s"],
            modelled_inner_product_time_s=summary["modelled_inner_product_time_s"],
            max_bond_dimension=max((s.max_bond_dimension for s in states), default=1),
            total_state_memory_bytes=sum(s.memory_bytes for s in states),
            num_simulations=int(summary["num_simulations"]),
            num_inner_products=int(summary["num_inner_products"]),
            cache_hits=hits1 - hits0,
            cache_misses=misses1 - misses0,
            states=tuple(states),
            block=block,
        )
