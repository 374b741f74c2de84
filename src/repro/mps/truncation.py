"""SVD truncation policies and error accounting.

The paper (equation (8)) quantifies the error of a single truncation of a
normalised, canonical-form MPS as::

    |<psi_ideal | psi_trunc>|^2 = 1 - sum_i s_i^2

where the sum runs over the *discarded* singular values ``s_i``.  The
simulator keeps the accumulated discarded weight below a configurable cut-off
(``1e-16`` by default, i.e. 64-bit machine precision) so that the overall
simulation is numerically exact for all practical purposes, while still
benefiting from the large memory savings the truncation provides (Fig. 6).

:class:`TruncationPolicy` encapsulates the decision of *how many* singular
values to keep; :class:`TruncationRecord` describes what one truncation did so
that instrumented simulations can report cumulative error and bond-dimension
evolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..exceptions import ConfigurationError, TruncationError

__all__ = ["TruncationPolicy", "TruncationRecord", "truncate_singular_values"]


@dataclass(frozen=True)
class TruncationRecord:
    """Outcome of a single SVD truncation.

    Attributes
    ----------
    kept:
        Number of singular values retained.
    discarded:
        Number of singular values removed.
    discarded_weight:
        Sum of squared removed singular values *relative to the total
        squared weight* -- the quantity bounded by the policy cut-off.
    bond_dimension_before / bond_dimension_after:
        Virtual bond dimension before and after the truncation.
    """

    kept: int
    discarded: int
    discarded_weight: float
    bond_dimension_before: int
    bond_dimension_after: int

    @property
    def fidelity_lower_bound(self) -> float:
        """Lower bound on ``|<ideal|truncated>|^2`` from equation (8)."""
        return max(0.0, 1.0 - self.discarded_weight)


@dataclass(frozen=True)
class TruncationPolicy:
    """How singular values are discarded after a two-qubit gate.

    Parameters
    ----------
    cutoff:
        Maximum allowed *relative* discarded squared weight per truncation.
        The paper uses ``1e-16``.
    max_bond_dim:
        Optional hard cap on the number of retained singular values.
    allow_lossy_cap:
        When the hard cap forces more weight to be discarded than ``cutoff``
        permits, raise :class:`TruncationError` unless this flag is set.
    """

    cutoff: float = 1e-16
    max_bond_dim: int | None = None
    allow_lossy_cap: bool = False

    def __post_init__(self) -> None:
        if self.cutoff < 0:
            raise ConfigurationError(f"cutoff must be >= 0, got {self.cutoff}")
        if self.max_bond_dim is not None and self.max_bond_dim < 1:
            raise ConfigurationError(
                f"max_bond_dim must be positive or None, got {self.max_bond_dim}"
            )

    def select_rank(self, singular_values: np.ndarray) -> Tuple[int, float]:
        """Decide how many singular values to keep.

        Parameters
        ----------
        singular_values:
            1-D array sorted in non-increasing order (as returned by SVD).

        Returns
        -------
        (kept, discarded_weight):
            ``kept`` is the number of singular values to retain (at least 1)
            and ``discarded_weight`` the relative squared weight of the rest.
        """
        s = np.asarray(singular_values, dtype=float)
        if s.ndim != 1 or s.size == 0:
            raise TruncationError("singular value array must be 1-D and non-empty")
        kept, weight = self.select_ranks(s[None, :])
        return int(kept[0]), float(weight[0])

    def select_ranks(self, singular_values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`select_rank` for every row of a ``(g, k)`` stack at once.

        Each row is decided on its own values only: one pairwise row sum for
        the total and one sequential cumsum from the smallest value for the
        tail weights, the arithmetic the single-row rule has always used.
        Row ``i`` of the result is therefore bit-identical to
        ``select_rank(s[i])``, whatever the other rows hold.

        Returns
        -------
        (kept, discarded_weight):
            An ``int`` array and a ``float`` array of length ``g``.

        Raises
        ------
        TruncationError
            If a ``max_bond_dim`` cap would discard more than ``cutoff`` on
            any row and ``allow_lossy_cap`` is unset; the message names the
            first such row's weight.
        """
        s = np.asarray(singular_values, dtype=float)
        if s.ndim != 2 or s.shape[1] == 0:
            raise TruncationError("singular value stack must be 2-D with non-empty rows")
        g, n = s.shape
        squared = s * s
        total = squared.sum(axis=1)
        # A degenerate row (all-zero theta) keeps a single value so the MPS
        # stays structurally valid; dividing it by 1 keeps the sweep quiet.
        degenerate = total <= 0.0
        if degenerate.any():
            total = np.where(degenerate, 1.0, total)
        # tail[:, n - k] = sum_{i >= k} s_i^2, the weight discarded when
        # keeping k values: a cumsum from the smallest value, after an exact
        # zero for k = n.
        tail = np.zeros((g, n))
        tail[:, 1:] = squared[:, :0:-1]
        ratio = np.cumsum(tail, axis=1) / total[:, None]
        # The tail shrinks as k grows, so the k that fit form a suffix and
        # the smallest is n + 1 minus their count (n when none fits: a NaN
        # spectrum).
        fitting = (ratio <= self.cutoff).sum(axis=1)
        kept = n + 1 - np.maximum(fitting, 1)
        rows = np.arange(g)
        weight = ratio[rows, n - kept]

        cap = self.max_bond_dim
        if cap is not None and cap < n:
            capped = (kept > cap) & ~degenerate
            rel = ratio[:, n - cap]
            lossy = capped & (rel > self.cutoff)
            if lossy.any() and not self.allow_lossy_cap:
                worst = float(rel[np.argmax(lossy)])
                raise TruncationError(
                    "bond-dimension cap would discard weight "
                    f"{worst:.3e} > cutoff {self.cutoff:.3e}; "
                    "set allow_lossy_cap=True for approximate simulation"
                )
            kept = np.where(capped, cap, kept)
            weight = np.where(capped, rel, weight)

        kept[degenerate] = 1
        weight[degenerate] = 0.0
        return kept, weight


def truncate_singular_values(
    u: np.ndarray,
    s: np.ndarray,
    vh: np.ndarray,
    policy: TruncationPolicy,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, TruncationRecord]:
    """Apply a truncation policy to the factors of an SVD.

    ``u`` has shape ``(l, p, k)``, ``s`` shape ``(k,)`` and ``vh`` shape
    ``(k, q, r)`` as produced by :func:`repro.mps.tensor_ops.split_theta`.
    Returns the truncated ``(u, s, vh)`` plus a :class:`TruncationRecord`.
    """
    before = int(s.shape[0])
    kept, discarded_weight = policy.select_rank(s)
    record = TruncationRecord(
        kept=kept,
        discarded=before - kept,
        discarded_weight=discarded_weight,
        bond_dimension_before=before,
        bond_dimension_after=kept,
    )
    return u[..., :kept], s[:kept], vh[:kept, ...], record
