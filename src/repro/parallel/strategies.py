"""Distribution strategies for the Gram matrix: no-messaging and round-robin.

Both strategies compute the symmetric training Gram matrix
``K_ij = |<psi(x_i)|psi(x_j)>|^2`` across ``k`` simulated processes and
report, per process, the time spent in MPS simulation, inner products and
communication -- the three bars of the paper's Figure 8.

No-messaging (Fig. 4a)
    The matrix is tiled; each process handles a subset of tiles and locally
    simulates every circuit its tiles need.  No communication occurs, but a
    circuit whose index appears in several processes' tiles is re-simulated
    on each of them.

Round-robin (Fig. 4b)
    The circuits are split evenly; each process simulates its own block once.
    Blocks are then passed around a ring so that every pair of blocks meets
    on exactly one process, which computes the corresponding tile of the
    matrix.  Each of the ``ceil((k-1)/2)`` ring steps moves one block per
    process, and the final matrix is assembled by a gather.

The strategies are deterministic and single-threaded; "parallel" wall-clock
times are computed as the per-phase maximum over processes, which is what an
actual synchronous MPI run would observe.

The per-pair loops below are *strategy internals*: they model which process
evaluates which entry at which ring step, so the iteration order is the
message schedule itself.  The primitives they drive come from the worker
(see :class:`repro.parallel.executor.KernelWorker`), which dispatches through
the unified :class:`repro.engine.KernelEngine`; every other consumer in the
library leaves its pairwise loops to the engine.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..exceptions import ParallelError
from .comm import CommunicationModel, SimulatedComm
from .tiling import (
    group_tiles_by_owner,
    partition_indices,
    rect_tiling,
    square_tiling,
)

__all__ = [
    "ProcessTimings",
    "DistributedGramResult",
    "GramDistributionStrategy",
    "NoMessagingStrategy",
    "NoMessagingCrossStrategy",
    "RoundRobinStrategy",
]


@dataclass
class ProcessTimings:
    """Per-process accounting of one distributed Gram-matrix computation."""

    rank: int
    simulation_s: float = 0.0
    inner_product_s: float = 0.0
    communication_s: float = 0.0
    num_simulations: int = 0
    num_inner_products: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    peak_states_held: int = 0

    @property
    def total_s(self) -> float:
        """Total busy time of the process."""
        return self.simulation_s + self.inner_product_s + self.communication_s


@dataclass
class DistributedGramResult:
    """Gram matrix plus the per-process and wall-clock timing breakdown."""

    matrix: np.ndarray
    per_process: List[ProcessTimings]
    strategy: str
    num_processes: int

    @property
    def simulation_wall_s(self) -> float:
        """Wall-clock of the simulation phase (max over processes)."""
        return max(p.simulation_s for p in self.per_process)

    @property
    def inner_product_wall_s(self) -> float:
        """Wall-clock of the inner-product phase (max over processes)."""
        return max(p.inner_product_s for p in self.per_process)

    @property
    def communication_wall_s(self) -> float:
        """Wall-clock of communication (max over processes)."""
        return max(p.communication_s for p in self.per_process)

    @property
    def total_wall_s(self) -> float:
        """Total wall-clock: sum of the phase wall-clocks."""
        return (
            self.simulation_wall_s
            + self.inner_product_wall_s
            + self.communication_wall_s
        )

    @property
    def total_simulations(self) -> int:
        """Total circuit simulations across processes (counts duplicates)."""
        return sum(p.num_simulations for p in self.per_process)

    @property
    def total_inner_products(self) -> int:
        """Total inner products across processes."""
        return sum(p.num_inner_products for p in self.per_process)

    def breakdown(self) -> Dict[str, float]:
        """Dictionary of the Figure-8 bar heights."""
        return {
            "strategy": self.strategy,
            "num_processes": self.num_processes,
            "simulation_wall_s": self.simulation_wall_s,
            "inner_product_wall_s": self.inner_product_wall_s,
            "communication_wall_s": self.communication_wall_s,
            "total_wall_s": self.total_wall_s,
        }


class GramDistributionStrategy(abc.ABC):
    """Interface of a distribution strategy.

    The ``worker`` argument of :meth:`compute` must provide::

        simulate(index) -> (state, seconds)
        inner_product(state_a, state_b) -> (kernel_value, seconds)
        state_nbytes(state) -> int

    (see :class:`repro.parallel.executor.KernelWorker`).  Times may be either
    measured wall-clock or modelled device times; the strategy is agnostic.
    """

    name: str = "abstract"

    def __init__(
        self,
        num_processes: int,
        communication: CommunicationModel | None = None,
    ) -> None:
        if num_processes < 1:
            raise ParallelError(f"num_processes must be >= 1, got {num_processes}")
        self.num_processes = num_processes
        self.communication = (
            communication if communication is not None else CommunicationModel()
        )

    @abc.abstractmethod
    def compute(self, worker, num_points: int) -> DistributedGramResult:
        """Compute the symmetric Gram matrix for ``num_points`` data points."""


class NoMessagingStrategy(GramDistributionStrategy):
    """Tile the matrix; every process simulates what its tiles need."""

    name = "no-messaging"

    def __init__(
        self,
        num_processes: int,
        communication: CommunicationModel | None = None,
        num_blocks: int | None = None,
    ) -> None:
        super().__init__(num_processes, communication)
        self.num_blocks = num_blocks

    def _resolve_blocks(self, num_points: int) -> int:
        if self.num_blocks is not None:
            return min(self.num_blocks, num_points)
        # Square tiling: aim for roughly one tile per process, i.e. a block
        # grid of side ~ sqrt(2k) so the upper triangle has ~k tiles.
        side = max(1, int(np.ceil(np.sqrt(2 * self.num_processes))))
        return min(side, num_points)

    def compute(self, worker, num_points: int) -> DistributedGramResult:
        if num_points < 2:
            raise ParallelError("need at least 2 data points for a Gram matrix")
        num_blocks = self._resolve_blocks(num_points)
        tiles = square_tiling(
            num_points, num_blocks, symmetric=True, num_owners=self.num_processes
        )

        timings = [ProcessTimings(rank=r) for r in range(self.num_processes)]
        matrix = np.eye(num_points)

        tiles_by_owner = group_tiles_by_owner(tiles, num_owners=self.num_processes)

        for rank in range(self.num_processes):
            t = timings[rank]
            local_states: Dict[int, object] = {}
            # Simulate every circuit any of this process' tiles requires.
            needed: set[int] = set()
            for tile in tiles_by_owner[rank]:
                needed.update(tile.required_states)
            for idx in sorted(needed):
                state, seconds = worker.simulate(idx)
                local_states[idx] = state
                t.simulation_s += seconds
                t.num_simulations += 1
            t.peak_states_held = len(local_states)
            # Compute the entries of each owned tile.
            for tile in tiles_by_owner[rank]:
                for (i, j) in tile.entry_pairs():
                    value, seconds = worker.inner_product(
                        local_states[i], local_states[j]
                    )
                    matrix[i, j] = matrix[j, i] = value
                    t.inner_product_s += seconds
                    t.num_inner_products += 1

        return DistributedGramResult(
            matrix=matrix,
            per_process=timings,
            strategy=self.name,
            num_processes=self.num_processes,
        )


class NoMessagingCrossStrategy(GramDistributionStrategy):
    """Rectangular cross-Gram over tiles; every process simulates its needs.

    The distributed gap the symmetric strategies left open: test-versus-train
    matrices and the Nystrom ``K_nm`` landmark block are rectangular, so the
    tile grid comes from :func:`repro.parallel.tiling.rect_tiling` and no
    mirroring occurs.  The worker indexes one stacked matrix -- rows first,
    then columns -- so the plain :class:`~repro.parallel.executor.KernelWorker`
    over ``vstack([X_rows, X_cols])`` drives it unchanged: row ``i`` of the
    output is data index ``i``, column ``j`` is data index ``num_rows + j``.

    Like :class:`NoMessagingStrategy` there is no communication; a data point
    touched by tiles on several ranks is re-simulated on each of them and the
    duplication is charged to the process that performs it.
    """

    name = "no-messaging-cross"

    def __init__(
        self,
        num_processes: int,
        communication: CommunicationModel | None = None,
        num_row_blocks: int | None = None,
        num_col_blocks: int | None = None,
    ) -> None:
        super().__init__(num_processes, communication)
        self.num_row_blocks = num_row_blocks
        self.num_col_blocks = num_col_blocks

    def _resolve_blocks(self, num_rows: int, num_cols: int) -> Tuple[int, int]:
        if self.num_row_blocks is not None:
            rows = min(self.num_row_blocks, num_rows)
        else:
            # Aim for roughly one tile per process along the longer axis.
            rows = min(max(1, int(np.ceil(np.sqrt(self.num_processes)))), num_rows)
        if self.num_col_blocks is not None:
            cols = min(self.num_col_blocks, num_cols)
        else:
            cols = min(max(1, int(np.ceil(self.num_processes / rows))), num_cols)
        return rows, cols

    def compute(self, worker, num_rows: int, num_cols: int | None = None) -> DistributedGramResult:
        """Cross-Gram of ``num_rows x num_cols`` entries over the process grid.

        ``worker.simulate`` must accept stacked indices ``0 .. num_rows +
        num_cols - 1`` (rows first).  Returns a rectangular matrix inside the
        usual :class:`DistributedGramResult` accounting envelope.
        """
        if num_cols is None:
            raise ParallelError("NoMessagingCrossStrategy.compute needs num_cols")
        if num_rows < 1 or num_cols < 1:
            raise ParallelError(
                f"cross-Gram needs positive dimensions, got {num_rows} x {num_cols}"
            )
        row_blocks, col_blocks = self._resolve_blocks(num_rows, num_cols)
        tiles = rect_tiling(
            num_rows,
            num_cols,
            row_blocks,
            col_blocks,
            num_owners=self.num_processes,
        )

        timings = [ProcessTimings(rank=r) for r in range(self.num_processes)]
        matrix = np.zeros((num_rows, num_cols))
        tiles_by_owner = group_tiles_by_owner(tiles, num_owners=self.num_processes)

        for rank in range(self.num_processes):
            t = timings[rank]
            local_states: Dict[int, object] = {}
            needed: set[int] = set()
            for tile in tiles_by_owner[rank]:
                needed.update(tile.row_indices)
                needed.update(num_rows + j for j in tile.col_indices)
            for idx in sorted(needed):
                state, seconds = worker.simulate(idx)
                local_states[idx] = state
                t.simulation_s += seconds
                t.num_simulations += 1
            t.peak_states_held = len(local_states)
            for tile in tiles_by_owner[rank]:
                for (i, j) in tile.entry_pairs():
                    value, seconds = worker.inner_product(
                        local_states[i], local_states[num_rows + j]
                    )
                    matrix[i, j] = value
                    t.inner_product_s += seconds
                    t.num_inner_products += 1

        return DistributedGramResult(
            matrix=matrix,
            per_process=timings,
            strategy=self.name,
            num_processes=self.num_processes,
        )


class RoundRobinStrategy(GramDistributionStrategy):
    """Simulate each circuit once and pass MPS blocks around a ring."""

    name = "round-robin"

    def compute(self, worker, num_points: int) -> DistributedGramResult:
        if num_points < 2:
            raise ParallelError("need at least 2 data points for a Gram matrix")
        k = min(self.num_processes, num_points)
        if k < self.num_processes:
            # More processes than points: the surplus ranks stay idle, which
            # is what an MPI run with a tiny data set would do.
            pass
        blocks = partition_indices(num_points, k)
        comm = SimulatedComm(self.num_processes, self.communication)
        timings = [ProcessTimings(rank=r) for r in range(self.num_processes)]
        matrix = np.eye(num_points)

        # Phase 1: every active rank simulates exactly its own block.
        own_states: List[Dict[int, object]] = [dict() for _ in range(self.num_processes)]
        for rank in range(k):
            t = timings[rank]
            for idx in blocks[rank]:
                state, seconds = worker.simulate(int(idx))
                own_states[rank][int(idx)] = state
                t.simulation_s += seconds
                t.num_simulations += 1
            t.peak_states_held = len(own_states[rank])

        # Phase 2, step 0: diagonal tiles (within-block upper triangle).
        for rank in range(k):
            t = timings[rank]
            idx = [int(i) for i in blocks[rank]]
            for a in range(len(idx)):
                for b in range(a + 1, len(idx)):
                    value, seconds = worker.inner_product(
                        own_states[rank][idx[a]], own_states[rank][idx[b]]
                    )
                    matrix[idx[a], idx[b]] = matrix[idx[b], idx[a]] = value
                    t.inner_product_s += seconds
                    t.num_inner_products += 1

        # Phase 2, ring steps: at step s rank p works on blocks (p, (p+s) % k).
        # The travelling block is shifted one position around the ring per
        # step.  For a symmetric matrix only ceil((k-1)/2) steps are needed;
        # when k is even, at the final step only half of the ranks compute
        # (the other half would duplicate the mirrored tile).
        travelling: List[Dict[int, object]] = [dict(own_states[r]) for r in range(k)]
        travelling_block: List[int] = list(range(k))  # which block each rank holds
        num_steps = (k - 1 + 1) // 2 if k % 2 == 1 else k // 2
        if k == 1:
            num_steps = 0

        for step in range(1, num_steps + 1):
            # Ring shift: rank p sends its travelling block to (p - 1) mod k
            # and receives from (p + 1) mod k.
            for rank in range(k):
                dest = (rank - 1) % k
                nbytes = sum(
                    worker.state_nbytes(s) for s in travelling[rank].values()
                )
                comm.send(rank, dest, (travelling_block[rank], travelling[rank]), nbytes)
                timings[rank].bytes_sent += nbytes
                timings[rank].communication_s += self.communication.transfer_time(nbytes)
            comm.deliver()
            new_travelling: List[Dict[int, object]] = [dict() for _ in range(k)]
            new_travelling_block = [0] * k
            for rank in range(k):
                received = comm.receive_all(rank)
                if len(received) != 1:
                    raise ParallelError(
                        f"rank {rank} expected exactly one block, got {len(received)}"
                    )
                block_id, states = received[0]
                new_travelling[rank] = states
                new_travelling_block[rank] = block_id
                nbytes = sum(worker.state_nbytes(s) for s in states.values())
                timings[rank].bytes_received += nbytes
                timings[rank].communication_s += self.communication.transfer_time(nbytes)
                timings[rank].peak_states_held = max(
                    timings[rank].peak_states_held,
                    len(own_states[rank]) + len(states),
                )
            travelling = new_travelling
            travelling_block = new_travelling_block

            # Compute the tile (own block, travelling block) on each rank.
            last_even_step = (k % 2 == 0) and (step == num_steps)
            for rank in range(k):
                if last_even_step and rank >= k // 2:
                    # The mirrored tile is handled by rank - k/2.
                    continue
                t = timings[rank]
                own_idx = [int(i) for i in blocks[rank]]
                other_idx = [int(i) for i in blocks[travelling_block[rank]]]
                for i in own_idx:
                    for j in other_idx:
                        value, seconds = worker.inner_product(
                            own_states[rank][i], travelling[rank][j]
                        )
                        matrix[i, j] = matrix[j, i] = value
                        t.inner_product_s += seconds
                        t.num_inner_products += 1

        return DistributedGramResult(
            matrix=matrix,
            per_process=timings,
            strategy=self.name,
            num_processes=self.num_processes,
        )
