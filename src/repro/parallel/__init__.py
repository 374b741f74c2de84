"""Distributed computation of the Gram matrix.

The paper computes the kernel matrix across many processes (MPI over
Perlmutter GPU nodes) using two strategies:

* **no-messaging** -- the matrix is tiled and each tile assigned to a
  process; every process independently simulates all circuits its tile
  needs, so circuits are re-simulated on ``O(sqrt(k))`` processes but no
  inter-process communication is required;
* **round-robin** -- circuits are split evenly so each is simulated exactly
  once, and blocks of MPS are passed around a ring so that every pair of
  blocks meets on exactly one process; this is more memory- and
  compute-efficient at the cost of message passing.

No MPI runtime is available offline, so both strategies run over
:class:`~repro.parallel.comm.SimulatedComm`, an in-process BSP-style
communicator with explicit byte accounting, and the per-process wall-clock
times are aggregated exactly as an MPI run would experience them (the
wall-clock of a phase is the maximum over processes).  See DESIGN.md,
substitution 3.  :mod:`~repro.parallel.projection` extrapolates measured
per-primitive costs to the paper's large-machine scenarios (e.g. 64,000 data
points on 320 GPUs).
"""

from .comm import SimulatedComm, CommunicationModel
from .tiling import (
    Tile,
    group_tiles_by_owner,
    partition_indices,
    rect_tiling,
    square_tiling,
    tiles_cover_matrix,
)
from .strategies import (
    DistributedGramResult,
    ProcessTimings,
    NoMessagingCrossStrategy,
    NoMessagingStrategy,
    RoundRobinStrategy,
)
from .executor import (
    KernelWorker,
    compute_cross_distributed,
    compute_gram_distributed,
)
from .projection import ScalingProjection, project_wall_clock

__all__ = [
    "SimulatedComm",
    "CommunicationModel",
    "Tile",
    "partition_indices",
    "square_tiling",
    "rect_tiling",
    "group_tiles_by_owner",
    "tiles_cover_matrix",
    "DistributedGramResult",
    "ProcessTimings",
    "NoMessagingStrategy",
    "NoMessagingCrossStrategy",
    "RoundRobinStrategy",
    "KernelWorker",
    "compute_gram_distributed",
    "compute_cross_distributed",
    "ScalingProjection",
    "project_wall_clock",
]
