"""Real multi-process execution of the Gram-matrix computation.

The strategies in :mod:`repro.parallel.strategies` model the distribution
logic (tiling, message schedule, per-process accounting) deterministically in
a single process.  This module complements them with *actual* parallel
execution on the local machine using :mod:`concurrent.futures`:

* the kernel matrix is tiled exactly as in the no-messaging strategy
  (each worker re-simulates the circuits its tile needs, so no MPS ever has
  to cross a process boundary);
* each worker builds its own per-process :class:`repro.engine.KernelEngine`
  and evaluates the tile through the engine's plan/batched-overlap path --
  the same compute core the sequential kernel uses;
* workers return plain ``(row, col, value)`` triples plus a flat accounting
  dictionary that the parent aggregates.

This mirrors how the paper exploits the embarrassing parallelism of the Gram
matrix, and gives a genuine wall-clock speed-up on multi-core machines.  The
implementation intentionally reuses :func:`repro.parallel.tiling.square_tiling`
so coverage properties are shared with the simulated strategies.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from ..config import AnsatzConfig, SimulationConfig
from ..exceptions import ParallelError
from .tiling import Tile, rect_tiling, square_tiling

__all__ = [
    "MultiprocessGramComputer",
    "MultiprocessCrossGramComputer",
    "compute_tile_entries",
    "compute_cross_tile_entries",
]

#: Accounting keys aggregated (by summation, except max-reductions) across
#: worker tiles by :meth:`MultiprocessGramComputer.compute_with_stats`.
_SUM_KEYS = (
    "wall_simulation_time_s",
    "wall_inner_product_time_s",
    "modelled_simulation_time_s",
    "modelled_inner_product_time_s",
    "modelled_batched_simulation_time_s",
    "modelled_batched_inner_product_time_s",
    "num_simulations",
    "num_inner_products",
)
_MAX_KEYS = ("max_bond_dimension",)


def compute_tile_entries(
    X: np.ndarray,
    ansatz_kwargs: Dict[str, Any],
    simulation_kwargs: Dict[str, Any],
    row_indices: Tuple[int, ...],
    col_indices: Tuple[int, ...],
    symmetric_diagonal: bool,
    with_stats: bool = False,
    backend_name: str = "cpu",
) -> Any:
    """Worker entry point: compute the kernel entries of one tile.

    Runs inside a worker process, so it only receives picklable primitives
    (the scaled feature matrix and plain keyword dictionaries) and returns
    plain triples.  Each worker simulates every circuit its tile touches --
    the no-messaging trade-off -- and evaluates the tile's overlap jobs
    through a per-process :class:`~repro.engine.KernelEngine` (padded overlap
    sweep, engine-owned symmetry handling).

    When ``with_stats`` is true the return value is ``(entries, stats)``
    where ``stats`` carries the worker's timing/bond-dimension accounting.
    """
    # Imports kept inside the function so the worker initialises quickly even
    # under spawn-based multiprocessing start methods.
    from ..engine import CrossGramPlan, KernelEngine, SymmetricGramPlan

    engine = KernelEngine.from_worker_kwargs(
        ansatz_kwargs, simulation_kwargs, backend_name
    )

    needed = sorted(set(row_indices) | set(col_indices))
    states = {idx: engine.encode_row(X[idx]) for idx in needed}

    entries: List[Tuple[int, int, float]] = []
    if symmetric_diagonal:
        # A diagonal tile is the symmetric Gram plan of its own index block.
        idx = list(row_indices)
        plan = SymmetricGramPlan(len(idx))
        tile_matrix = engine.execute_plan(plan, [states[i] for i in idx])
        for job in plan.jobs():
            entries.append((idx[job.row], idx[job.col], float(tile_matrix[job.row, job.col])))
    else:
        plan = CrossGramPlan(len(row_indices), len(col_indices))
        tile_matrix = engine.execute_plan(
            plan,
            [states[i] for i in row_indices],
            [states[j] for j in col_indices],
        )
        for job in plan.jobs():
            entries.append(
                (
                    row_indices[job.row],
                    col_indices[job.col],
                    float(tile_matrix[job.row, job.col]),
                )
            )

    if not with_stats:
        return entries

    summary = engine.backend.timing_summary()
    stats = {key: float(summary[key]) for key in _SUM_KEYS if key in summary}
    # Memory is reported per data-point index so the parent can deduplicate
    # across tiles (a point touched by several tiles is one stored MPS).
    stats["state_memory_by_index"] = {
        idx: int(s.memory_bytes) for idx, s in states.items()
    }
    stats["max_bond_dimension"] = float(
        max((s.max_bond_dimension for s in states.values()), default=1)
    )
    return entries, stats


def compute_cross_tile_entries(
    X_row_block: np.ndarray,
    col_payload: bytes,
    ansatz_kwargs: Dict[str, Any],
    simulation_kwargs: Dict[str, Any],
    row_offset: int,
    col_offset: int,
    with_stats: bool = False,
    backend_name: str = "cpu",
) -> Any:
    """Worker entry point: one rectangular tile of a cross-Gram matrix.

    Both axes of the tile arrive pre-sliced, so a job ships only what its
    worker needs: ``X_row_block`` holds the tile's feature rows (encoded
    locally -- the no-messaging trade-off restricted to the row axis) and
    ``col_payload`` its column states, already *serialised* by the parent
    (typically the Nystrom landmark states straight out of the engine's
    state store), so workers never re-simulate a column.  ``row_offset`` /
    ``col_offset`` translate the block-local coordinates back to the global
    matrix.

    Every overlap goes through the engine's batched path, so the entries are
    bit-identical to a serial :class:`~repro.engine.plan.CrossGramPlan` over
    the same data.
    """
    from ..engine import CrossGramPlan, KernelEngine, deserialize_states

    engine = KernelEngine.from_worker_kwargs(
        ansatz_kwargs, simulation_kwargs, backend_name
    )

    row_states = [engine.encode_row(row) for row in X_row_block]
    col_states = deserialize_states(col_payload)

    plan = CrossGramPlan(len(row_states), len(col_states))
    tile_matrix = engine.execute_plan(plan, row_states, col_states)
    entries: List[Tuple[int, int, float]] = []
    for job in plan.jobs():
        entries.append(
            (
                row_offset + job.row,
                col_offset + job.col,
                float(tile_matrix[job.row, job.col]),
            )
        )

    if not with_stats:
        return entries

    summary = engine.backend.timing_summary()
    stats = {key: float(summary[key]) for key in _SUM_KEYS if key in summary}
    stats["state_memory_by_index"] = {
        row_offset + i: int(s.memory_bytes) for i, s in enumerate(row_states)
    }
    stats["max_bond_dimension"] = float(
        max(
            (s.max_bond_dimension for s in row_states + col_states),
            default=1,
        )
    )
    return entries, stats


@dataclass
class MultiprocessGramComputer:
    """Compute a symmetric quantum-kernel Gram matrix with a process pool.

    Parameters
    ----------
    ansatz:
        Feature-map hyper-parameters.
    simulation:
        MPS simulation configuration (defaults to machine-precision truncation).
    max_workers:
        Worker processes; ``None`` lets the executor choose.  ``0`` or ``1``
        computes everything in the parent process (useful for tests and for
        platforms where process pools are undesirable).
    num_blocks:
        Side length of the tile grid; defaults to roughly one tile per worker.
    backend_name:
        Registry name of the backend each worker builds (``"cpu"`` /
        ``"gpu"``); the numerics are backend-independent but the modelled
        device times are not.
    """

    ansatz: AnsatzConfig
    simulation: SimulationConfig | None = None
    max_workers: int | None = None
    num_blocks: int | None = None
    backend_name: str = "cpu"

    def _ansatz_kwargs(self) -> Dict[str, Any]:
        return self.ansatz.to_dict()

    def _simulation_kwargs(self) -> Dict[str, Any]:
        config = self.simulation if self.simulation is not None else SimulationConfig()
        return config.to_dict()

    def _resolve_workers(self) -> int:
        if self.max_workers is not None:
            if self.max_workers < 0:
                raise ParallelError("max_workers must be >= 0")
            return self.max_workers
        return min(4, os.cpu_count() or 1)

    def _tiles(self, num_points: int, workers: int) -> List[Tile]:
        if self.num_blocks is not None:
            blocks = min(self.num_blocks, num_points)
        else:
            blocks = min(max(1, int(np.ceil(np.sqrt(2 * max(workers, 1))))), num_points)
        return square_tiling(num_points, blocks, symmetric=True, num_owners=max(workers, 1))

    def compute(self, X: np.ndarray) -> np.ndarray:
        """Return the symmetric Gram matrix of the scaled feature matrix ``X``."""
        matrix, _stats = self.compute_with_stats(X)
        return matrix

    def compute_with_stats(self, X: np.ndarray) -> Tuple[np.ndarray, Dict[str, float]]:
        """Gram matrix plus aggregated per-worker accounting.

        Wall and modelled times are summed across workers (total busy time,
        including duplicated simulations -- the no-messaging trade-off);
        ``max_bond_dimension`` is the maximum across tiles.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] < 2:
            raise ParallelError("X must be a 2-D matrix with at least two rows")
        if X.shape[1] != self.ansatz.num_features:
            raise ParallelError(
                f"X has {X.shape[1]} features but the ansatz expects "
                f"{self.ansatz.num_features}"
            )

        num_points = X.shape[0]
        workers = self._resolve_workers()
        tiles = self._tiles(num_points, workers)
        matrix = np.eye(num_points)

        jobs = [
            (
                X,
                self._ansatz_kwargs(),
                self._simulation_kwargs(),
                tile.row_indices,
                tile.col_indices,
                tile.symmetric_diagonal,
                True,
                self.backend_name,
            )
            for tile in tiles
        ]

        if workers <= 1:
            results = [compute_tile_entries(*job) for job in jobs]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(compute_tile_entries, *job) for job in jobs]
                results = [f.result() for f in futures]

        stats: Dict[str, float] = {key: 0.0 for key in _SUM_KEYS}
        stats.update({key: 1.0 for key in _MAX_KEYS})
        memory_by_index: Dict[int, int] = {}
        for entries, tile_stats in results:
            for (i, j, value) in entries:
                matrix[i, j] = matrix[j, i] = value
            for key in _SUM_KEYS:
                stats[key] += tile_stats.get(key, 0.0)
            for key in _MAX_KEYS:
                stats[key] = max(stats[key], tile_stats.get(key, 1.0))
            memory_by_index.update(tile_stats.get("state_memory_by_index", {}))
        # Each data point counts once, matching the sequential path, even
        # though several tiles may have re-simulated it.
        stats["total_state_memory_bytes"] = float(sum(memory_by_index.values()))
        return matrix, stats


@dataclass
class MultiprocessCrossGramComputer:
    """Compute a rectangular cross-Gram matrix with a process pool.

    The missing half of the distributed story: :class:`MultiprocessGramComputer`
    fans out the symmetric training Gram, this class fans out the ``n x m``
    cross block (test-versus-train matrices and the Nystrom ``K_nm`` landmark
    block) over :func:`repro.parallel.tiling.rect_tiling` tiles.

    Column states are *shipped*, not re-simulated: the caller provides them
    as already-encoded MPS (for Nystrom, the cached landmark states), the
    parent serialises each column block exactly once, and every worker
    attaches its block from bytes.  Only row circuits are encoded inside the
    workers.  Entries are bit-identical to the serial
    :class:`~repro.engine.plan.CrossGramPlan` path because both run the same
    batched-overlap sweep on the same tensors.

    Parameters mirror :class:`MultiprocessGramComputer`; ``num_blocks``
    bounds the tile grid side on both axes.
    """

    ansatz: AnsatzConfig
    simulation: SimulationConfig | None = None
    max_workers: int | None = None
    num_blocks: int | None = None
    backend_name: str = "cpu"

    def _ansatz_kwargs(self) -> Dict[str, Any]:
        return self.ansatz.to_dict()

    def _simulation_kwargs(self) -> Dict[str, Any]:
        config = self.simulation if self.simulation is not None else SimulationConfig()
        return config.to_dict()

    def _resolve_workers(self) -> int:
        if self.max_workers is not None:
            if self.max_workers < 0:
                raise ParallelError("max_workers must be >= 0")
            return self.max_workers
        return min(4, os.cpu_count() or 1)

    def _tiles(self, num_rows: int, num_cols: int, workers: int) -> List[Tile]:
        if self.num_blocks is not None:
            row_blocks = min(self.num_blocks, num_rows)
            col_blocks = min(self.num_blocks, num_cols)
        else:
            # One row stripe per worker; column blocks only when the column
            # count dwarfs the row count (landmark blocks are narrow).
            row_blocks = min(max(workers, 1), num_rows)
            col_blocks = 1 if num_rows >= num_cols else min(max(workers, 1), num_cols)
        return rect_tiling(
            num_rows,
            num_cols,
            row_blocks,
            col_blocks,
            num_owners=max(workers, 1),
        )

    def compute(self, X_rows: np.ndarray, col_states: Sequence[Any]) -> np.ndarray:
        """Cross-Gram of the scaled row matrix against encoded column states."""
        matrix, _stats = self.compute_with_stats(X_rows, col_states)
        return matrix

    def compute_with_stats(
        self, X_rows: np.ndarray, col_states: Sequence[Any]
    ) -> Tuple[np.ndarray, Dict[str, float]]:
        """Cross-Gram matrix plus aggregated per-worker accounting.

        Wall and modelled times are summed across workers (total busy time);
        row-state memory is deduplicated per data point and the shipped
        column states are counted once, matching the sequential accounting.
        """
        from ..engine import serialize_states

        X_rows = np.asarray(X_rows, dtype=float)
        if X_rows.ndim == 1:
            X_rows = X_rows[None, :]
        if X_rows.ndim != 2 or X_rows.shape[0] < 1:
            raise ParallelError("X_rows must be a 2-D matrix with at least one row")
        if X_rows.shape[1] != self.ansatz.num_features:
            raise ParallelError(
                f"X_rows has {X_rows.shape[1]} features but the ansatz expects "
                f"{self.ansatz.num_features}"
            )
        col_states = list(col_states)
        if not col_states:
            raise ParallelError("col_states must not be empty")

        num_rows, num_cols = X_rows.shape[0], len(col_states)
        workers = self._resolve_workers()
        tiles = self._tiles(num_rows, num_cols, workers)

        # Serialise each column block exactly once, shared by every tile in
        # that block column (and by every worker attaching it).  Row blocks
        # are sliced per tile, so a job ships only the rows it encodes.
        payload_by_block: Dict[int, bytes] = {}
        offset_by_block: Dict[int, int] = {}
        for tile in tiles:
            if tile.col_block not in payload_by_block:
                lo, hi = tile.col_indices[0], tile.col_indices[-1] + 1
                payload_by_block[tile.col_block] = serialize_states(col_states[lo:hi])
                offset_by_block[tile.col_block] = lo

        jobs = []
        for tile in tiles:
            row_lo, row_hi = tile.row_indices[0], tile.row_indices[-1] + 1
            jobs.append(
                (
                    X_rows[row_lo:row_hi],
                    payload_by_block[tile.col_block],
                    self._ansatz_kwargs(),
                    self._simulation_kwargs(),
                    row_lo,
                    offset_by_block[tile.col_block],
                    True,
                    self.backend_name,
                )
            )

        if workers <= 1:
            results = [compute_cross_tile_entries(*job) for job in jobs]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(compute_cross_tile_entries, *job) for job in jobs]
                results = [f.result() for f in futures]

        matrix = np.zeros((num_rows, num_cols))
        stats: Dict[str, float] = {key: 0.0 for key in _SUM_KEYS}
        stats.update({key: 1.0 for key in _MAX_KEYS})
        memory_by_index: Dict[int, int] = {}
        for entries, tile_stats in results:
            for (i, j, value) in entries:
                matrix[i, j] = value
            for key in _SUM_KEYS:
                stats[key] += tile_stats.get(key, 0.0)
            for key in _MAX_KEYS:
                stats[key] = max(stats[key], tile_stats.get(key, 1.0))
            memory_by_index.update(tile_stats.get("state_memory_by_index", {}))
        stats["total_state_memory_bytes"] = float(
            sum(memory_by_index.values())
            + sum(s.memory_bytes for s in col_states)
        )
        return matrix, stats
