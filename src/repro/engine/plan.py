"""Declarative pairwise work plans.

Every kernel-matrix computation in the library reduces to the same shape of
work: a set of ``(i, j)`` overlap jobs between a *left* list of encoded states
and a *right* list, whose results land at ``matrix[row, col]`` (optionally
mirrored across the diagonal).  Historically each consumer hand-rolled that
double loop; a plan enumerates the jobs **once**, in one place, so that the
engine and the tests iterate the exact same job stream and symmetry is
exploited by construction rather than by convention.

Three concrete plans cover all call sites:

* :class:`SymmetricGramPlan` -- training Gram matrix; only the strict upper
  triangle is evaluated (``n (n - 1) / 2`` jobs), the diagonal is 1 by
  normalisation and every entry is mirrored.
* :class:`CrossGramPlan` -- rectangular test-versus-train kernel.
* :class:`KernelRowPlan` -- inference-time kernel rows of a (usually small)
  batch of new points against the stored training states; structurally a
  cross plan, kept as its own type so serving paths are greppable.

Plans only enumerate overlap jobs; encoding the rows is the engine's other
primitive (:meth:`repro.engine.KernelEngine.encode_rows`), run before any
plan executes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from ..exceptions import KernelError

__all__ = [
    "PairJob",
    "PairwisePlan",
    "SymmetricGramPlan",
    "CrossGramPlan",
    "KernelRowPlan",
]


@dataclass(frozen=True)
class PairJob:
    """One overlap evaluation: left state x right state -> matrix entry.

    Attributes
    ----------
    left / right:
        Indices into the plan's left / right state lists.
    row / col:
        Output coordinates in the result matrix.
    mirror:
        Whether ``matrix[col, row]`` receives the same value (symmetric
        plans).
    """

    left: int
    right: int
    row: int
    col: int
    mirror: bool = False


class PairwisePlan(abc.ABC):
    """Enumeration of the overlap jobs of one kernel-matrix computation.

    A plan is pure bookkeeping: it never touches states or backends, so it can
    be built (and tested) without any simulation.
    """

    #: Shape of the output matrix.
    shape: Tuple[int, int]

    @abc.abstractmethod
    def jobs(self) -> Iterator[PairJob]:
        """Yield every overlap job exactly once, in canonical order."""

    @abc.abstractmethod
    def initial_matrix(self) -> np.ndarray:
        """The output matrix before any job result is written."""

    @property
    @abc.abstractmethod
    def num_pairs(self) -> int:
        """Number of overlap evaluations the plan requires."""

    def job_list(self) -> List[PairJob]:
        """Materialised job stream."""
        return list(self.jobs())


class SymmetricGramPlan(PairwisePlan):
    """Plan for a symmetric ``n x n`` training Gram matrix.

    Exploits ``K = K^T`` and ``K_ii = 1``: only the strict upper triangle is
    enumerated and every job is mirrored.
    """

    def __init__(self, num_points: int) -> None:
        if num_points < 1:
            raise KernelError(f"need at least one point, got {num_points}")
        self.num_points = num_points
        self.shape = (num_points, num_points)

    def jobs(self) -> Iterator[PairJob]:
        for i in range(self.num_points):
            for j in range(i + 1, self.num_points):
                yield PairJob(left=i, right=j, row=i, col=j, mirror=True)

    def initial_matrix(self) -> np.ndarray:
        return np.eye(self.num_points)

    @property
    def num_pairs(self) -> int:
        return self.num_points * (self.num_points - 1) // 2

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SymmetricGramPlan(n={self.num_points}, pairs={self.num_pairs})"


class CrossGramPlan(PairwisePlan):
    """Plan for a rectangular ``n_rows x n_cols`` kernel matrix.

    The left states index the rows (e.g. test points) and the right states the
    columns (e.g. stored training states); every pair is evaluated.
    """

    def __init__(self, num_rows: int, num_cols: int) -> None:
        if num_rows < 1 or num_cols < 1:
            raise KernelError(
                f"cross plan needs positive dimensions, got {num_rows} x {num_cols}"
            )
        self.num_rows = num_rows
        self.num_cols = num_cols
        self.shape = (num_rows, num_cols)

    def jobs(self) -> Iterator[PairJob]:
        for i in range(self.num_rows):
            for j in range(self.num_cols):
                yield PairJob(left=i, right=j, row=i, col=j, mirror=False)

    def initial_matrix(self) -> np.ndarray:
        return np.zeros(self.shape)

    @property
    def num_pairs(self) -> int:
        return self.num_rows * self.num_cols

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(shape={self.shape}, pairs={self.num_pairs})"


class KernelRowPlan(CrossGramPlan):
    """Plan for inference-time kernel rows against stored training states.

    Identical job structure to :class:`CrossGramPlan`; the separate type marks
    the serving hot path (one or a few new points against a large training
    set).
    """

    def __init__(self, num_train: int, num_rows: int = 1) -> None:
        super().__init__(num_rows, num_train)
        self.num_train = num_train

