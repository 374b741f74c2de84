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
  remaining cache misses are encoded in stacked passes
  (:meth:`repro.backends.Backend.simulate_batch`) that apply each ansatz
  layer as one diagonal MPO to the rows of the ansatz's angle table
  (:func:`repro.circuits.feature_map_batch`); a row's state depends on the
  row alone, byte for byte, and is within rounding of the exact state;
* every overlap runs through the backend's padded BLAS transfer sweep
  against one pre-stacked :class:`StackedStateBlock`
  (:meth:`repro.backends.Backend.inner_product_block`): cross blocks and
  kernel rows sweep each row against the whole block, and the Gram sweeps
  each state against the tail of its own block, so only the strict upper
  triangle is evaluated.

Every result carries the wall time and count of both primitives and the
hits and misses of the engine's own store lookups: differences of monotone
counters read as attributes before and after the call.  Modelled device
time is priced only on the solo primitives the paper times:
:meth:`KernelEngine.simulate_row` and :meth:`repro.backends.Backend.inner_product`.

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
from ..circuits import (  # noqa: F401
    build_feature_map_circuit,
    feature_map_batch,
    feature_map_gate_stacks,
)
from ..config import AnsatzConfig, SimulationConfig
from ..exceptions import ConfigurationError, EngineError, KernelError
from ..mps import MPS
from .batching import StackedStateBlock
from .cache import (
    StateStore,
    ansatz_fingerprint,
    key_suffix,
    row_key,
    simulation_fingerprint,
)

__all__ = ["EngineConfig", "EngineResult", "KernelEngine"]

#: Most rows one backend encode takes.  A bigger stack amortises the Python
#: and gufunc overhead around each stacked SVD and QR: a 128-row fit of the
#: benchmark ansatz is one call, not four.  Inside the call a chunk whose
#: bonds reach 16 runs as ``min(cores, rows // MIN_PIECE_ROWS)`` row pieces
#: on threads (:mod:`repro.mps.encoding`): that 128-row fit is two 64-row
#: pieces of 10 stacked calls each on a two-core machine.  States depend on
#: neither (a row's state depends on the row alone).
ENCODE_CHUNK_ROWS = 128


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of the unified kernel engine.

    Parameters
    ----------
    use_cache:
        Enable the content-addressed :class:`StateStore` for encodes.
    cache_bytes:
        LRU byte budget of the store (``None`` = unbounded).
    """

    use_cache: bool = False
    cache_bytes: Optional[int] = None


@dataclass(frozen=True)
class EngineResult:
    """One engine call: the kernel matrix plus its counts and wall times."""

    matrix: np.ndarray
    simulation_time_s: float
    inner_product_time_s: float
    num_simulations: int
    num_inner_products: int
    cache_hits: int
    cache_misses: int
    states: Tuple[MPS, ...] = field(repr=False)
    #: The Gram's padded, stacked ``states`` (``None`` for other calls):
    #: the block exact-model scoring sweeps new rows against.
    block: Optional[StackedStateBlock] = field(default=None, repr=False)

    @property
    def max_bond_dimension(self) -> int:
        """Largest bond dimension over :attr:`states`."""
        return max((s.max_bond_dimension for s in self.states), default=1)

    @property
    def total_state_memory_bytes(self) -> int:
        """Memory footprint of :attr:`states`."""
        return sum(s.memory_bytes for s in self.states)


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
        self._key_suffix = key_suffix(self._ansatz_fp, self._simulation_fp)
        #: This engine's store lookups since construction (never reset).
        self._store_hits = 0
        self._store_misses = 0

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
        backend: Backend | None = None,
    ) -> "KernelEngine":
        """Rebuild an engine from its plain-dict description.

        A serving payload carries only picklable primitives: the ansatz and
        simulation configurations as ``to_dict()`` mappings (``dtype`` may
        arrive as a string) plus the backend registry name.  Every model
        rebuilt from a serving payload, and the drift controller's shadow
        engine, is built through this single entry point, so
        config-rehydration rules live in one place.  A setting neither configuration knows --
        say one a newer or older release wrote into a payload -- raises
        :class:`~repro.exceptions.ConfigurationError` naming it.  An
        existing ``backend`` is used as it is, once its registry name and
        simulation config are checked against the description's.
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
        simulation = SimulationConfig(**sim_kwargs)
        if backend is None:
            backend = get_backend(backend_name, simulation)
        elif (backend.name, backend.config) != (backend_name, simulation):
            raise ConfigurationError(
                f"backend {backend.name!r} runs {backend.config}, but the "
                f"description asks for {backend_name!r} with {simulation}"
            )
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
        simulates the row's routed circuit one unpadded MPS gate at a time,
        in the merged steps of :func:`~repro.circuits.feature_map_gate_stacks`
        -- the primitive the paper times, and the gate-by-gate reference of
        :meth:`encode_row`: within rounding of it (``1 - |<a|b>|^2 <=
        1e-12`` at the default cutoff) but not byte-equal to it, and a kept
        rank at the cut-off may differ by one.
        """
        stacks = feature_map_gate_stacks(np.asarray(row, dtype=float)[None, :], self.ansatz)
        return self.backend._simulate_steps(stacks.num_qubits, stacks.row(0))

    def encode_row(self, row: np.ndarray) -> MPS:
        """Encode one feature row, through the state store when enabled.

        A miss runs the stacked encode of :meth:`encode_rows` on this row
        alone, so the state is byte-identical to the one any batched encode
        gives the same row.
        """
        if self.store is None:
            return self._sweep(np.asarray(row, dtype=float)[None, :])[0]
        key = row_key(row, self._key_suffix)
        cached = self.store.get(key)
        if cached is not None:
            self._store_hits += 1
            return cached
        self._store_misses += 1
        state = self._sweep(np.asarray(row, dtype=float)[None, :])[0]
        self.store.put(key, state)
        return state

    def encode_rows(self, X: np.ndarray) -> List[MPS]:
        """Encode every row of ``X`` (validated) to an MPS.

        A single row goes through :meth:`encode_row`.  Multi-row encodes run
        through the backend's stacked layer encode
        (:meth:`repro.backends.Backend.simulate_batch`), cache-aware: rows
        already in the state store are served from it and **only the misses**
        are simulated, all in one pass per :data:`ENCODE_CHUNK_ROWS` rows.
        A row's state depends on the row alone (the encode pads every row
        to widths its ansatz and its own ranks fix), so the returned states
        are byte-identical under any cache occupancy, chunking, batch
        composition or order, and to :meth:`encode_row`.
        """
        return self._encode_validated(self.validate_features(X))

    def _encode_validated(self, X: np.ndarray) -> List[MPS]:
        """:meth:`encode_rows` of an already validated ``X``."""
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
        keys = [row_key(row, self._key_suffix) for row in X]
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
        misses = len(pending)
        for i in deferred:
            cached = self.store.get(keys[i])
            misses += cached is None
            states[i] = cached if cached is not None else self.encode_row(X[i])
        self._store_hits += n - misses
        self._store_misses += misses
        return [s for s in states if s is not None]

    def _encode_batched(
        self,
        X: np.ndarray,
        indices: Iterable[int],
        states: List["MPS | None"],
    ) -> None:
        """Encode the selected rows in stacked passes, filling ``states``.

        Each chunk goes to the backend as its angle table; no per-row
        circuit object is made.
        """
        indices = list(indices)
        for lo in range(0, len(indices), ENCODE_CHUNK_ROWS):
            chunk = indices[lo : lo + ENCODE_CHUNK_ROWS]
            for i, state in zip(chunk, self._sweep(X[chunk])):
                states[i] = state

    def _sweep(self, X: np.ndarray) -> Tuple[MPS, ...]:
        """One stacked encode of the rows of ``X``, from the angle table."""
        if self.backend.config.track_memory:
            # A memory trace is per gate: trace each row's gate-by-gate steps.
            return tuple(self.simulate_row(row).state for row in X)
        return self.backend.simulate_batch(feature_map_batch(X, self.ansatz)).states

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

        The result's accounting covers exactly this computation: the
        difference of the backend's counters and the engine's store-lookup
        counts across it.  The block is returned as
        :attr:`EngineResult.block`, so a model fitted on this Gram scores
        new rows against it without stacking the states again.
        """
        X = self.validate_features(X)
        before = self._counters()
        states = self._encode_validated(X)
        n = len(states)
        K = np.eye(n)
        block = StackedStateBlock(states)
        for i in range(n - 1):
            result = self.backend.inner_product_block([states[i]], block.tail(i + 1))
            K[i, i + 1 :] = np.abs(result.values[0]) ** 2
        lower = np.tril_indices(n, -1)
        K[lower] = K.T[lower]
        return self._result(K, states, before, block)

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
        before = self._counters()
        row_states = self._encode_validated(X_rows)
        if block is None:
            block = StackedStateBlock(list(train_states))
        result = self.backend.inner_product_block(row_states, block)
        K = np.abs(result.values) ** 2
        return self._result(K, row_states, before)

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
    def _counters(self) -> Tuple[float, ...]:
        """Wall seconds and counts of both primitives, then this engine's
        store hits and misses, all since construction: the accounting
        fields of :class:`EngineResult`, in their order."""
        backend = self.backend
        return (
            backend.wall_simulation_time_s,
            backend.wall_inner_product_time_s,
            backend.num_simulations,
            backend.num_inner_products,
            self._store_hits,
            self._store_misses,
        )

    def _result(
        self,
        K: np.ndarray,
        states: Sequence[MPS],
        before: Tuple[float, ...],
        block: StackedStateBlock | None = None,
    ) -> EngineResult:
        deltas = (after - was for after, was in zip(self._counters(), before))
        return EngineResult(K, *deltas, tuple(states), block)
