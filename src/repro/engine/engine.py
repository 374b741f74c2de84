"""The :class:`KernelEngine` facade: one compute core for all pairwise work.

Every kernel-matrix computation in the library -- training Gram matrices,
test-versus-train cross matrices, inference kernel rows -- is the same two
primitives composed: encode data points to MPS (linear in ``N``), evaluate
pairwise overlaps (quadratic in ``N``).  The engine owns both primitives,
each with exactly one code path, so consumers describe *what* to compute (a
:class:`~repro.engine.plan.PairwisePlan`) and never *how*:

* :meth:`KernelEngine.encode_rows` goes through an optional
  content-addressed :class:`~repro.engine.cache.StateStore`, so a point
  encoded for training is never re-simulated at inference time; the
  remaining cache misses of a multi-row encode run as stacked gate sweeps
  (:meth:`repro.backends.Backend.simulate_batch`), bit-identical to
  per-point simulation;
* overlap jobs are chunked and dispatched through the backend's padded
  BLAS transfer sweep (:meth:`repro.backends.Backend.inner_product_batch`),
  and cross blocks / kernel rows run the same sweep against one pre-stacked
  state block (:meth:`repro.backends.Backend.inner_product_block`);
* the executor -- ``"sequential"``, ``"tiled"`` (cache-friendly tile-ordered
  job stream) or ``"multiprocess"`` (process-pool fan-out) -- is selected by
  :class:`EngineConfig` without touching call sites.

:class:`repro.kernels.QuantumKernel`,
:class:`repro.kernels.ProjectedQuantumKernel`,
:class:`repro.core.QuantumKernelPipeline` and
:class:`repro.core.QuantumKernelInferenceEngine` are all thin layers over
this class, which makes it the single choke point for future scaling work
(sharding, async serving, GPU batching).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..backends import Backend, BackendResult, CpuBackend
from ..circuits import build_feature_map_circuit
from ..config import AnsatzConfig, SimulationConfig
from ..exceptions import EngineError, KernelError
from ..mps import MPS
from ..telemetry.tracing import TRACER
from .batching import StackedStateBlock
from .cache import StateStore, ansatz_fingerprint, simulation_fingerprint, state_key
from .plan import PairJob, PairwisePlan, SymmetricGramPlan

__all__ = ["EngineConfig", "EngineResult", "KernelEngine"]

_EXECUTORS = ("sequential", "tiled", "multiprocess")


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of the unified kernel engine.

    Parameters
    ----------
    executor:
        ``"sequential"`` evaluates the plan's canonical job order in one
        process; ``"tiled"`` evaluates the same jobs tile-by-tile (the
        locality order the distributed strategies use); ``"multiprocess"``
        fans symmetric Gram plans out over a local process pool.
    use_cache:
        Enable the content-addressed :class:`StateStore` for encodes.
    cache_bytes:
        LRU byte budget of the store (``None`` = unbounded).
    batch_size:
        Maximum overlap pairs per batched backend call.
    num_blocks:
        Tile-grid side for the tiled / multiprocess executors (``None`` =
        auto).
    max_workers:
        Process count for the multiprocess executor (``None`` = auto).
    encode_batch_size:
        Maximum circuits per stacked encoding sweep.
    """

    executor: str = "sequential"
    use_cache: bool = False
    cache_bytes: Optional[int] = None
    batch_size: int = 64
    num_blocks: Optional[int] = None
    max_workers: Optional[int] = None
    encode_batch_size: int = 32

    def __post_init__(self) -> None:
        if self.executor not in _EXECUTORS:
            raise EngineError(
                f"unknown executor {self.executor!r}; expected one of {_EXECUTORS}"
            )
        if self.batch_size < 1:
            raise EngineError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.encode_batch_size < 1:
            raise EngineError(
                f"encode_batch_size must be >= 1, got {self.encode_batch_size}"
            )


@dataclass(frozen=True)
class EngineResult:
    """One executed plan: the kernel matrix plus full cost accounting."""

    matrix: np.ndarray
    simulation_time_s: float
    inner_product_time_s: float
    modelled_simulation_time_s: float
    modelled_inner_product_time_s: float
    max_bond_dimension: int
    total_state_memory_bytes: int
    num_simulations: int
    num_inner_products: int
    cache_hits: int = 0
    cache_misses: int = 0
    modelled_batched_simulation_time_s: float = 0.0
    modelled_batched_inner_product_time_s: float = 0.0
    states: Tuple[MPS, ...] = field(default=(), repr=False)

    @property
    def total_time_s(self) -> float:
        """Measured wall-clock total of both primitives."""
        return self.simulation_time_s + self.inner_product_time_s

    @property
    def modelled_total_time_s(self) -> float:
        """Modelled device total, one launch per *point* (batching-invariant).

        This is the historical per-point accounting: it never moves when a
        workload is batched or re-chunked, which is what lets tests
        pin engine behaviour across execution paths.
        """
        return self.modelled_simulation_time_s + self.modelled_inner_product_time_s

    @property
    def modelled_batched_total_time_s(self) -> float:
        """Modelled device total under the *stacked* launch model.

        Charges each stacked sweep's launch/transfer overhead once per stack
        instead of once per point
        (:meth:`repro.backends.DeviceCostModel.batched_inner_product_time`
        and the ``batched_*_gate_time`` entries) -- the device prediction
        for the stacked encode and block sweep, and the number the extended
        Fig. 5 crossover study dispatches on.
        """
        return (
            self.modelled_batched_simulation_time_s
            + self.modelled_batched_inner_product_time_s
        )


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
        Engine configuration (executor, cache, batching).
    store:
        Externally owned :class:`StateStore`; overrides ``config.use_cache``
        so several engines (or a serving layer) can share one cache.
    cross_backend:
        Optional second backend (typically a
        :class:`~repro.backends.SimulatedGpuBackend`) offered the stacked
        cross sweep: before each block sweep of :meth:`cross`, the engine
        compares ``cost_model.batched_inner_product_time`` across the two
        devices and dispatches to whichever model predicts the cheaper block
        -- the Fig. 5 crossover decision, modelled rather than hardcoded.
        Both backends run identical NumPy numerics, so dispatch never
        changes a kernel value; its accounting is merged into the result.
    """

    def __init__(
        self,
        ansatz: AnsatzConfig,
        backend: Backend | None = None,
        simulation: SimulationConfig | None = None,
        config: EngineConfig | None = None,
        store: StateStore | None = None,
        cross_backend: Backend | None = None,
    ) -> None:
        self.ansatz = ansatz
        if backend is None:
            backend = CpuBackend(simulation)
        self.backend = backend
        self.cross_backend = cross_backend
        self.config = config if config is not None else EngineConfig()
        if store is not None:
            self.store: StateStore | None = store
        elif self.config.use_cache:
            self.store = StateStore(max_bytes=self.config.cache_bytes)
        else:
            self.store = None
        self._ansatz_fp = ansatz_fingerprint(ansatz)
        self._simulation_fp = simulation_fingerprint(self.backend.config)
        self._encode_batch_size_override: Optional[int] = None

    @property
    def encode_batch_size(self) -> int:
        """Effective stacked-encode chunk size (live override, else config).

        Chunking is bit-identical by the stacked-sweep contract, so this
        knob only moves sweep granularity -- a serving queue applies its own
        setting via :meth:`set_encode_batch_size` without rebuilding the
        engine.
        """
        override = self._encode_batch_size_override
        return self.config.encode_batch_size if override is None else override

    def set_encode_batch_size(self, size: int | None) -> int:
        """Override the stacked-encode chunk size at runtime.

        ``None`` clears the override and restores the config default.
        Returns the effective chunk size after the change.
        """
        if size is not None and int(size) < 1:
            raise EngineError(f"encode_batch_size must be >= 1, got {size}")
        self._encode_batch_size_override = None if size is None else int(size)
        return self.encode_batch_size

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
        arrive as a string) plus the backend registry name.  Every
        multiprocess worker and serving replica reconstructs its engine
        through this single entry point, so config-rehydration rules live in
        one place.
        """
        from ..backends import get_backend

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
        """Uncached single-row simulation (full :class:`BackendResult`).

        The distributed strategies charge every re-simulation to the process
        that performs it, so this path deliberately bypasses the store.
        """
        circuit = build_feature_map_circuit(np.asarray(row, dtype=float), self.ansatz)
        return self.backend.simulate(circuit)

    def encode_row(self, row: np.ndarray) -> MPS:
        """Encode one feature row, through the state store when enabled."""
        if self.store is None:
            return self.simulate_row(row).state
        key = state_key(row, self._ansatz_fp, self._simulation_fp)
        cached = self.store.get(key)
        if cached is not None:
            return cached
        state = self.simulate_row(row).state
        self.store.put(key, state)
        return state

    def encode_rows(self, X: np.ndarray) -> List[MPS]:
        """Encode every row of ``X`` (validated) to an MPS.

        A single row goes through :meth:`encode_row`.  Multi-row encodes run
        through the backend's stacked gate sweep
        (:meth:`repro.backends.Backend.simulate_batch`), cache-aware: rows
        already in the state store are served from it and **only the misses**
        are simulated, all in one sweep per ``encode_batch_size`` chunk.
        Because the stacked sweep is bit-identical to per-point simulation,
        the returned states do not depend on cache occupancy, chunking or
        batch composition.
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
        """Encode the selected rows through stacked sweeps, filling ``states``."""
        indices = list(indices)
        chunk_size = self.encode_batch_size
        for lo in range(0, len(indices), chunk_size):
            chunk = indices[lo : lo + chunk_size]
            circuits = [
                build_feature_map_circuit(np.asarray(X[i], dtype=float), self.ansatz)
                for i in chunk
            ]
            result = self.backend.simulate_batch(circuits)
            for i, state in zip(chunk, result.states):
                states[i] = state

    def cache_stats(self):
        """Store statistics, or ``None`` when caching is disabled."""
        return self.store.stats() if self.store is not None else None

    # ------------------------------------------------------------------
    # Plan execution
    # ------------------------------------------------------------------
    def _job_stream(self, plan: PairwisePlan) -> Iterable[PairJob]:
        """The plan's jobs in the executor's preferred order."""
        if self.config.executor == "tiled" and isinstance(plan, SymmetricGramPlan):
            return self._tiled_jobs(plan)
        return plan.jobs()

    def _tiled_jobs(self, plan: SymmetricGramPlan) -> Iterable[PairJob]:
        """Symmetric-plan jobs reordered tile-by-tile (locality order)."""
        from ..parallel.tiling import square_tiling

        n = plan.num_points
        blocks = self.config.num_blocks
        if blocks is None:
            blocks = max(1, int(np.ceil(np.sqrt(n))))
        blocks = min(blocks, n)
        for tile in square_tiling(n, blocks, symmetric=True):
            for (i, j) in tile.entry_pairs():
                yield PairJob(left=i, right=j, row=i, col=j, mirror=True)

    def execute_plan(
        self,
        plan: PairwisePlan,
        left_states: Sequence[MPS],
        right_states: Sequence[MPS] | None = None,
    ) -> np.ndarray:
        """Evaluate every job of ``plan`` and return the filled matrix.

        Jobs are chunked to ``config.batch_size`` and dispatched through the
        backend's batched overlap path; symmetric mirroring happens here, so
        no caller ever writes kernel entries directly.
        """
        right = left_states if right_states is None else right_states
        n_left, n_right = plan.shape
        if isinstance(plan, SymmetricGramPlan):
            if len(left_states) < plan.num_points:
                raise EngineError(
                    f"plan needs {plan.num_points} states, got {len(left_states)}"
                )
        else:
            if len(left_states) < n_left or len(right) < n_right:
                raise EngineError(
                    f"plan shape {plan.shape} exceeds the provided state lists "
                    f"({len(left_states)} x {len(right)})"
                )

        K = plan.initial_matrix()
        chunk: List[PairJob] = []

        def _flush() -> None:
            if not chunk:
                return
            pairs = [(left_states[job.left], right[job.right]) for job in chunk]
            result = self.backend.inner_product_batch(pairs)
            values = np.abs(result.values) ** 2
            for job, value in zip(chunk, values):
                K[job.row, job.col] = value
                if job.mirror:
                    K[job.col, job.row] = value
            chunk.clear()

        for job in self._job_stream(plan):
            chunk.append(job)
            if len(chunk) >= self.config.batch_size:
                _flush()
        _flush()
        return K

    # ------------------------------------------------------------------
    # High-level entry points
    # ------------------------------------------------------------------
    def gram(self, X: np.ndarray) -> EngineResult:
        """Symmetric training Gram matrix ``K_ij = |<psi_i|psi_j>|^2``.

        Resets the backend counters first, so the result's accounting covers
        exactly this computation (matching the historical semantics of
        ``QuantumKernel.gram_matrix``).
        """
        X = self.validate_features(X)
        if self.config.executor == "multiprocess" and X.shape[0] >= 2:
            return self._gram_multiprocess(X)
        self.backend.reset_counters()
        hits0, misses0 = self._cache_counts()
        states = self.encode_rows(X)
        plan = SymmetricGramPlan(len(states))
        K = self.execute_plan(plan, states)
        return self._result_from_counters(K, states, hits0, misses0)

    def cross(self, X_rows: np.ndarray, train_states: Sequence[MPS]) -> EngineResult:
        """Rectangular kernel between new rows and stored training states.

        With the ``"multiprocess"`` executor the rectangular tiles fan out
        over a local process pool: column states are serialised once and
        shipped, row circuits are encoded inside the workers, and the result
        is bit-identical to the sequential cross plan.  Covers the Nystrom
        ``K_nm`` fit block and bulk test-versus-train scoring; the serving
        hot path (:meth:`kernel_rows`) stays in-process by design.

        Otherwise the whole block runs as one padded sweep of the rows against
        a :class:`StackedStateBlock` of ``train_states``
        (:meth:`~repro.backends.Backend.inner_product_block`), dispatched to
        ``cross_backend`` when its cost model predicts the cheaper block.
        Its values are byte-identical to the chunked pair sweep the Gram and
        the multiprocess tiles run, whatever the executor or batch size.
        """
        if self.config.executor == "multiprocess":
            return self._cross_multiprocess(X_rows, train_states)
        return self._rectangular(X_rows, train_states, serving=False)

    def kernel_rows(
        self,
        X_rows: np.ndarray,
        train_states: Sequence[MPS],
        block: StackedStateBlock | None = None,
    ) -> EngineResult:
        """Inference-time kernel rows against stored training states.

        Identical values and accounting to :meth:`cross`, on the serving hot
        path: it never fans out or changes device.  Pass the
        ``train_states``' :class:`StackedStateBlock` (built once at fit time)
        to skip re-stacking it.
        """
        return self._rectangular(X_rows, train_states, serving=True, block=block)

    def _rectangular(
        self,
        X_rows: np.ndarray,
        train_states: Sequence[MPS],
        serving: bool,
        block: StackedStateBlock | None = None,
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
        if self.cross_backend is not None:
            self.cross_backend.reset_counters()
        hits0, misses0 = self._cache_counts()
        with TRACER.span("engine.encode") as sp:
            row_states = self.encode_rows(X_rows)
            if sp is not None:
                sp.set_attribute("rows", len(row_states))
        with TRACER.span("engine.overlap") as sp:
            backend = self.backend
            if block is None:
                block = StackedStateBlock(list(train_states))
                if not serving:
                    backend = self._select_cross_backend(row_states, block)
            result = backend.inner_product_block(row_states, block)
            if sp is not None:
                sp.set_attribute("pairs", result.num_pairs)
        K = np.abs(result.values) ** 2
        return self._result_from_counters(K, row_states, hits0, misses0)

    def _select_cross_backend(
        self, row_states: Sequence[MPS], block: StackedStateBlock
    ) -> Backend:
        """Pick the backend whose cost model predicts the cheaper block sweep.

        The Fig. 5 crossover decision, applied to the Nystrom / cross sweep:
        both candidates run identical NumPy numerics, so this only moves
        *where* the padded sweep is charged, never what it returns.  With
        no ``cross_backend`` configured the primary backend always wins.
        """
        if self.cross_backend is None:
            return self.backend
        num_pairs = len(row_states) * block.num_states
        chi = max(
            max((s.max_bond_dimension for s in row_states), default=1),
            int(block.max_bond_dimensions.max()) if block.num_states else 1,
        )
        primary = self.backend.cost_model.batched_inner_product_time(
            num_pairs, block.num_qubits, chi
        )
        candidate = self.cross_backend.cost_model.batched_inner_product_time(
            num_pairs, block.num_qubits, chi
        )
        return self.cross_backend if candidate < primary else self.backend

    def gram_and_cross(
        self, X_train: np.ndarray, X_test: np.ndarray
    ) -> Tuple[EngineResult, EngineResult]:
        """Training Gram matrix plus test cross matrix, train states shared.

        The training points are encoded once; the cross phase reuses the
        stored states exactly as the paper's inference procedure does.
        """
        train_result = self.gram(X_train)
        train_states: Sequence[MPS] = train_result.states
        if not train_states:
            # The multiprocess executor computes the Gram matrix out of
            # process and keeps no states; encode them here for the cross
            # phase (charged to neither result -- cross() resets counters).
            train_states = self.encode_rows(X_train)
        test_result = self.cross(X_test, train_states)
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
    ) -> EngineResult:
        summary = dict(self.backend.timing_summary())
        if self.cross_backend is not None:
            # The cross backend was reset alongside the primary one, so its
            # counters are zero unless the block sweep dispatched to it;
            # merging keeps the result's accounting complete either way.
            for key, value in self.cross_backend.timing_summary().items():
                if isinstance(value, (int, float)):
                    summary[key] = summary.get(key, 0) + value
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
            modelled_batched_simulation_time_s=summary.get(
                "modelled_batched_simulation_time_s", 0.0
            ),
            modelled_batched_inner_product_time_s=summary.get(
                "modelled_batched_inner_product_time_s", 0.0
            ),
            states=tuple(states),
        )

    def _gram_multiprocess(self, X: np.ndarray) -> EngineResult:
        """Fan a symmetric Gram plan out over a local process pool.

        Workers rebuild this engine's backend (by registry name, so modelled
        device times match) and simulation config, but run sequentially and
        without a shared cache -- states cannot cross process boundaries
        cheaply.  Per-tile accounting is aggregated here: wall times are
        summed across workers (total busy time, not elapsed time) and state
        memory is deduplicated per data point.
        """
        from ..parallel.multiprocess import MultiprocessGramComputer

        computer = MultiprocessGramComputer(
            ansatz=self.ansatz,
            simulation=self.backend.config,
            max_workers=self.config.max_workers,
            num_blocks=self.config.num_blocks,
            backend_name=self.backend.name,
        )
        self.backend.reset_counters()
        matrix, stats = computer.compute_with_stats(X)
        return self._result_from_worker_stats(matrix, stats)

    def _cross_multiprocess(
        self, X_rows: np.ndarray, train_states: Sequence[MPS]
    ) -> EngineResult:
        """Fan a rectangular cross plan out over a local process pool.

        The provided column states are serialised once by the computer and
        attached in every worker (no re-simulation of the columns); only the
        row circuits are encoded worker-side.  Accounting mirrors
        :meth:`_gram_multiprocess`: busy times are summed across workers.
        """
        from ..parallel.multiprocess import MultiprocessCrossGramComputer

        if not train_states:
            raise KernelError("train_states must not be empty")
        X_rows = self.validate_features(X_rows)
        computer = MultiprocessCrossGramComputer(
            ansatz=self.ansatz,
            simulation=self.backend.config,
            max_workers=self.config.max_workers,
            num_blocks=self.config.num_blocks,
            backend_name=self.backend.name,
        )
        self.backend.reset_counters()
        matrix, stats = computer.compute_with_stats(X_rows, train_states)
        return self._result_from_worker_stats(matrix, stats)

    def _result_from_worker_stats(
        self, matrix: np.ndarray, stats: dict
    ) -> EngineResult:
        """Engine result assembled from aggregated worker accounting."""
        return EngineResult(
            matrix=matrix,
            simulation_time_s=stats["wall_simulation_time_s"],
            inner_product_time_s=stats["wall_inner_product_time_s"],
            modelled_simulation_time_s=stats["modelled_simulation_time_s"],
            modelled_inner_product_time_s=stats["modelled_inner_product_time_s"],
            max_bond_dimension=int(stats["max_bond_dimension"]),
            total_state_memory_bytes=int(stats["total_state_memory_bytes"]),
            num_simulations=int(stats["num_simulations"]),
            num_inner_products=int(stats["num_inner_products"]),
            modelled_batched_simulation_time_s=stats.get(
                "modelled_batched_simulation_time_s",
                stats["modelled_simulation_time_s"],
            ),
            modelled_batched_inner_product_time_s=stats.get(
                "modelled_batched_inner_product_time_s",
                stats["modelled_inner_product_time_s"],
            ),
            states=(),
        )
