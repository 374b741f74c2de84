"""Batched circuit encoding: padded stacked sweeps over same-structure circuits.

Encoding a data point -- simulating its feature-map circuit into an MPS -- is
the linear half of the paper's workload.  All circuits built from one ansatz
share a *structure* (the same ordered sequence of gate targets; only the
angles differ per data point), so a micro-batch of encodings is one sweep over
a stack of tensors, fed by one ``(g, d, d)`` gate stack per step
(:class:`GateStacks`):

* the engine builds the stacks straight from an angle table
  (:func:`repro.circuits.feature_map_gate_stacks`), in sorted-edge order
  with each run of two-qubit gates on one pair merged into one step; a list
  of circuits is grouped by :func:`circuit_structure_signature` and each group's
  ``op.matrix()`` calls are stacked (:func:`stack_circuits`), so mixed
  structures still work and each group runs its own straight sweep;
* every row's site tensors are zero-padded to one width per bond and step:
  the width an untruncated simulation of the structure gives that bond at
  that point of the sweep, clamped to the row's block clamp (below) and
  never past the policy's ``max_bond_dim``.  The widths come from the gate
  targets and the clamp, never from the batch or the data, so all rows of a
  block are one ``(g, l, 2, r)`` stack per site: single- and two-qubit
  contractions are broadcast ``matmul`` gufuncs, each QR centre move and
  each post-gate SVD one stacked LAPACK gufunc call;
* truncation is decided **per row**: the stack's singular values go through
  :meth:`TruncationPolicy.select_ranks`, whose row ``i`` is the
  :meth:`~TruncationPolicy.select_rank` a solo simulation would run on that
  row's singular values.  A row's dropped columns of ``U`` and rows of
  ``S Vh`` are zeroed rather than sliced off, and after every QR / RQ centre
  move the factor columns (rows) beyond the row's live rank -- which only
  ever meet zero rows (columns) of ``R`` -- are zeroed as well.  Each row
  therefore carries its *live* bond dimensions, exactly the shapes per-point
  simulation would give it, inside the padding, and every state is trimmed
  to its live ranks at the end;
* the structure's bounds (:func:`bond_caps`) grow like ``2 ** (n / 2)`` on
  wide registers, while the ranks truncation keeps stay far lower (11 to 13
  at interaction distance 2 from 8 to 16 qubits), so every row starts in a
  block whose bonds are clamped to :data:`FIRST_CLAMP`.  A row whose kept
  rank outgrows its clamp at some gate moves, with its untruncated split,
  to the block of the next rung of :func:`clamp_ladder` (twice the clamp
  holds every rank the gate can produce), zero-padded to that block's
  shapes, and carries on there.  A chunk thus holds one block per rung in
  use, at most ``len(clamp_ladder(...))``.

Encoding contract
-----------------
*A row's state is a function of the row alone.*  Every operation acts on
one row's slice at shapes the structure and the row's clamp fix, the gate
at which a row changes block is decided on its own slice, and NumPy
evaluates gufunc slices independently of how many ride in one call, so a
row's site tensors are byte-identical however the batch was composed,
chunked, permuted or partitioned -- alone (``g = 1``) or with any
neighbours.  This is the
invariant the encoding property suites pin down and the serving layer's
byte-identical-predictions contract extends to cold traffic.

*A state is within tolerance of per-point simulation of the same steps*
(:meth:`repro.mps.MPS.apply_circuit` for a circuit,
:meth:`repro.backends.Backend.simulate` of a one-row :class:`GateStacks`),
no longer bit-equal to it: a padded
factorisation rounds differently from the unpadded one.  Each row keeps the
same ranks per-point simulation would and has the same bond dimensions, and
``1 - |<batched|per-point>|^2`` stays at the level of double-precision
rounding (``<= 1e-12``) under the default cutoff; under a lossy
``max_bond_dim`` the bound is the policy's own error budget, ``1 - sum`` of
the discarded weights, because a cut inside a degenerate singular-value
cluster may pick a different basis of the cluster.

The module lives in the :mod:`repro.mps` layer (it depends only on the MPS
machinery and NumPy); :mod:`repro.backends` wraps it with device cost-model
accounting (:meth:`repro.backends.Backend.simulate_batch`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from ..exceptions import SimulationError
from .mps import MPS
from .tensor_ops import robust_svd, stacked_qr_right, stacked_rq_left
from .truncation import TruncationPolicy

__all__ = [
    "circuit_structure_signature",
    "group_circuits_by_structure",
    "GateStacks",
    "stack_circuits",
    "GateShapeLog",
    "FIRST_CLAMP",
    "bond_caps",
    "clamp_ladder",
    "encode_circuits",
]

#: Bond clamp every row starts under.  It holds every rank the
#: interaction-distance-1 and -2 ansatze keep (at most 13 measured from 8 to
#: 16 qubits), so their rows never change block; it is also the widest bond
#: of the 8-qubit ansatz, so that sweep is not clamped at all.
FIRST_CLAMP = 16


def circuit_structure_signature(circuit) -> Tuple:
    """Hashable signature of a circuit's gate *structure* (targets, order).

    Two circuits with equal signatures apply gates to the same qubits in the
    same order -- only the gate matrices differ -- so their simulations can
    share one stacked sweep.  All feature-map circuits built from one
    :class:`~repro.config.AnsatzConfig` have equal signatures by
    construction.
    """
    return (circuit.num_qubits, tuple(op.qubits for op in circuit.operations))


def group_circuits_by_structure(circuits: Sequence) -> Dict[Tuple, List[int]]:
    """Group circuit indices by structure signature (insertion-ordered)."""
    groups: Dict[Tuple, List[int]] = defaultdict(list)
    for idx, circuit in enumerate(circuits):
        groups[circuit_structure_signature(circuit)].append(idx)
    return dict(groups)


@dataclass(frozen=True)
class GateStacks:
    """A batch of same-structure routed circuits as one gate stack per step.

    ``gates[k]`` has shape ``(num_circuits, d, d)``: row ``i`` is the matrix
    circuit ``i`` applies to ``targets[k]`` at step ``k``.  Stacks are only
    read, so a fixed gate may be a broadcast view of one matrix.
    """

    num_qubits: int
    num_circuits: int
    targets: Tuple[Tuple[int, ...], ...]
    gates: Tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return self.num_circuits

    def row(self, i: int) -> List[Tuple[Tuple[int, ...], np.ndarray]]:
        """Circuit ``i`` as its ``(targets, matrix)`` steps."""
        return [(qubits, gates[i]) for qubits, gates in zip(self.targets, self.gates)]


def stack_circuits(circuits: Sequence) -> List[Tuple[List[int], GateStacks]]:
    """Group circuits by structure and stack each group's gate matrices.

    Returns ``(indices, stacks)`` per structure group, in first-occurrence
    order; ``indices`` are positions in ``circuits``.
    """
    out: List[Tuple[List[int], GateStacks]] = []
    for indices in group_circuits_by_structure(circuits).values():
        members = [circuits[i].operations for i in indices]
        first = members[0]
        out.append(
            (
                indices,
                GateStacks(
                    num_qubits=circuits[indices[0]].num_qubits,
                    num_circuits=len(indices),
                    targets=tuple(op.qubits for op in first),
                    gates=tuple(
                        np.stack([ops[k].matrix() for ops in members])
                        for k in range(len(first))
                    ),
                ),
            )
        )
    return out


@dataclass
class GateShapeLog:
    """Per-row live tensor shapes seen by a stacked sweep, for cost models.

    Each stacked gate application records one live-bond array per leg (one
    entry per batch row): ``(chi_l, chi_r)`` for a single-qubit gate,
    ``(chi_l, chi_m, chi_r)`` for a two-qubit gate, the pre-gate shapes the
    row would have if simulated alone.  :attr:`entries` folds them into
    distinct shapes with counts, so backends turn the log into modelled
    device seconds without the encoding layer depending on
    :mod:`repro.backends`.  ``structure_groups`` records how many distinct
    circuit structures the batch contained (filled by
    :func:`encode_circuits`, saving consumers a re-grouping pass).
    """

    singles: List[Tuple[np.ndarray, ...]] = field(default_factory=list)
    twos: List[Tuple[np.ndarray, ...]] = field(default_factory=list)
    structure_groups: int = 0

    def add_single(self, chi_l: np.ndarray, chi_r: np.ndarray) -> None:
        self.singles.append((chi_l, chi_r))

    def add_two(self, chi_l: np.ndarray, chi_m: np.ndarray, chi_r: np.ndarray) -> None:
        self.twos.append((chi_l, chi_m, chi_r))

    @property
    def entries(self) -> List[Tuple]:
        """Distinct shapes with row counts: ``("1q", count, chi_l, chi_r)``
        and ``("2q", count, chi_l, chi_m, chi_r)``, each kind in sorted
        shape order -- a function of the multiset of logged shapes."""
        out: List[Tuple] = []
        for kind, logged in (("1q", self.singles), ("2q", self.twos)):
            if not logged:
                continue
            legs = [np.concatenate(leg) for leg in zip(*logged)]
            # One integer per shape, in lexicographic shape order.
            extent = (int(max(leg.max() for leg in legs)) + 1,) * len(legs)
            keys, counts = np.unique(
                np.ravel_multi_index(legs, extent), return_counts=True
            )
            shapes = np.stack(np.unravel_index(keys, extent), axis=1)
            out.extend(
                (kind, count, *shape)
                for shape, count in zip(shapes.tolist(), counts.tolist())
            )
        return out

    @property
    def stacked_launches(self) -> int:
        """Stacked gate applications issued, one per gate and clamp block
        (fewer = more sharing)."""
        return len(self.singles) + len(self.twos)


def bond_caps(
    num_qubits: int,
    targets: Sequence[Tuple[int, ...]],
    max_bond_dim: int | None = None,
) -> List[int]:
    """Largest dimension each of the ``num_qubits + 1`` bonds can reach.

    They bound every block's padded widths; the last rung of
    :func:`clamp_ladder` is their maximum.
    Walks the gate targets the way per-point simulation shapes its tensors:
    a two-qubit gate on ``(q, q + 1)`` splits a ``2 chi_q x 2 chi_{q+2}``
    matrix, so bond ``q + 1`` can grow to ``min(2 chi_q, 2 chi_{q+2})``, and
    never past ``max_bond_dim``.  The result never exceeds
    ``2 ** min(b, num_qubits - b)`` and depends only on the circuit structure
    and the policy.

    Raises
    ------
    SimulationError
        If a two-qubit gate acts on non-adjacent qubits (unrouted circuit).
    """
    caps = [1] * (num_qubits + 1)
    for qubits in targets:
        if len(qubits) == 1:
            continue
        if len(qubits) != 2 or qubits[1] != qubits[0] + 1:
            raise SimulationError(
                "batched encoding requires a routed circuit "
                f"(adjacent two-qubit gates); got targets {qubits}"
            )
        q = qubits[0]
        grown = min(2 * caps[q], 2 * caps[q + 2])
        if max_bond_dim is not None:
            grown = min(grown, max_bond_dim)
        caps[q + 1] = max(caps[q + 1], grown)
    return caps


def clamp_ladder(widest: int) -> List[int]:
    """Bond clamps of the blocks a sweep over a structure whose widest bond
    is ``widest`` may hold: :data:`FIRST_CLAMP`, doubled until the last
    clamps nothing."""
    ladder = [min(FIRST_CLAMP, widest)]
    while ladder[-1] < widest:
        ladder.append(min(2 * ladder[-1], widest))
    return ladder


@lru_cache(maxsize=None)
def _prefix_masks(width: int) -> np.ndarray:
    """``(width + 1, width)`` table whose row ``k`` is ``k`` ones, then zeros."""
    return np.tri(width + 1, width, -1)


def _stacked_svd(mats: np.ndarray):
    """Stacked SVD with the same robustness ladder as :func:`robust_svd`.

    If any slice fails to converge the whole stack falls back to per-slice
    :func:`robust_svd` (which retries with scipy's gesvd driver), so a row's
    factors never depend on whether a neighbour converged.
    """
    try:
        return np.linalg.svd(mats, full_matrices=False)
    except np.linalg.LinAlgError:
        us, ss, vhs = [], [], []
        for mat in mats:
            u, s, vh = robust_svd(mat)
            us.append(u)
            ss.append(s)
            vhs.append(vh)
        return np.stack(us), np.stack(ss), np.stack(vhs)


class _ChainBlock:
    """The rows of a structure group that share one bond clamp.

    ``stacks[site]`` has shape ``(g, l, 2, r)``, where ``l`` and ``r`` are
    the bond widths an untruncated simulation of the structure has at this
    point of the sweep, clamped to ``clamp`` (and to ``max_bond_dim``)
    (:func:`_padded_bonds`): they depend on the gate targets and the clamp
    only, so every gate is one gufunc call on the whole block.  ``rows``
    maps the block's slices to batch positions, ascending (so a block
    holding all ``g`` rows reads the batch's gate stacks as they are).
    ``live[bond]`` holds each row's live dimension of ``bond`` -- the width
    a solo simulation of that row would have -- and every entry outside a
    row's live block is exactly zero.  ``full[bond]`` says every row fills
    the bond's padded width, so masks along it would be all ones.  ``live``
    entries are replaced, never mutated, so the shape log may keep them.
    """

    def __init__(
        self,
        rows: np.ndarray,
        clamp: int,
        stacks: List[np.ndarray],
        live: List[np.ndarray],
        center: int,
    ) -> None:
        self.rows = rows
        self.clamp = clamp
        self.stacks = stacks
        self.live = live
        widths = [stack.shape[1] for stack in stacks] + [stacks[-1].shape[3]]
        self.full = [bool(ranks.min() == w) for ranks, w in zip(live, widths)]
        self.center = center

    @classmethod
    def zero_state(cls, rows: np.ndarray, num_qubits: int, clamp: int) -> "_ChainBlock":
        zero = np.zeros((len(rows), 1, 2, 1), dtype=np.complex128)
        zero[:, 0, 0, 0] = 1.0  # |0...0>
        # Every site needs its own array: sites are updated independently.
        stacks = [zero.copy() for _ in range(num_qubits)]
        live = [np.ones(len(rows), dtype=np.intp)] * (num_qubits + 1)
        return cls(rows, clamp, stacks, live, center=0)

    def take(self, mask: np.ndarray) -> "_ChainBlock":
        """A new block of the rows ``mask`` selects."""
        return _ChainBlock(
            self.rows[mask],
            self.clamp,
            [stack[mask] for stack in self.stacks],
            [ranks[mask] for ranks in self.live],
            self.center,
        )

    def absorb(self, other: "_ChainBlock") -> None:
        """Merge in ``other``'s rows (same clamp, same step, same shapes),
        keeping ``rows`` ascending."""
        order = np.argsort(np.concatenate([self.rows, other.rows]))
        self.rows = np.concatenate([self.rows, other.rows])[order]
        self.stacks = [
            np.concatenate(pair)[order] for pair in zip(self.stacks, other.stacks)
        ]
        self.live = [np.concatenate(pair)[order] for pair in zip(self.live, other.live)]
        self.full = [a and b for a, b in zip(self.full, other.full)]

    def _set_live(self, bond: int, ranks: np.ndarray, width: int) -> None:
        self.live[bond] = ranks
        self.full[bond] = bool(ranks.min() == width)

    def _masked(self, tensor: np.ndarray, site: int) -> np.ndarray:
        """``tensor`` (site ``site``'s ``(g, l, 2, r)``) with everything
        outside each row's live block set to zero."""
        _g, left, _p, right = tensor.shape
        if not self.full[site]:
            tensor = tensor * _prefix_masks(left)[self.live[site]][:, :, None, None]
        if not self.full[site + 1]:
            tensor = tensor * _prefix_masks(right)[self.live[site + 1]][:, None, None, :]
        return tensor

    def apply_single(self, q: int, gates: np.ndarray, log: GateShapeLog) -> None:
        log.add_single(self.live[q], self.live[q + 1])
        # Zero padding maps to zero padding: no mask needed.
        self.stacks[q] = np.matmul(gates[:, None, :, :], self.stacks[q])

    def move_center(self, q: int) -> None:
        """Move every row's orthogonality centre onto site ``q``.

        The QR / QR-of-adjoint steps ``MPS._move_center`` performs per point,
        issued as stacked gufuncs.  A step leaves a row the bond rank
        ``min(2 chi_l, chi_r)`` (rightward) or ``min(chi_l, 2 chi_r)``
        (leftward), as it would per point; the factor columns (rows) beyond
        it meet only zero rows (columns) of ``R``, and are zeroed.
        """
        stacks, live = self.stacks, self.live
        while self.center < q:
            i = self.center
            qs, rs = stacked_qr_right(stacks[i])
            rank = np.minimum(2 * live[i], live[i + 1])
            self._set_live(i + 1, rank, rs.shape[1])
            stacks[i] = self._masked(qs, i)
            if not self.full[i + 1]:
                rs = rs * _prefix_masks(rs.shape[1])[rank][:, :, None]
            nxt = stacks[i + 1]
            g, nl, nphys, nr = nxt.shape
            stacks[i + 1] = np.matmul(rs, nxt.reshape(g, nl, nphys * nr)).reshape(
                g, rs.shape[1], nphys, nr
            )
            self.center = i + 1
        while self.center > q:
            i = self.center
            rs, qs = stacked_rq_left(stacks[i])
            rank = np.minimum(live[i], 2 * live[i + 1])
            self._set_live(i, rank, rs.shape[2])
            stacks[i] = self._masked(qs, i)
            if not self.full[i]:
                rs = rs * _prefix_masks(rs.shape[2])[rank][:, None, :]
            prv = stacks[i - 1]
            g, pl, pphys, pr = prv.shape
            stacks[i - 1] = np.matmul(prv.reshape(g, pl * pphys, pr), rs).reshape(
                g, pl, pphys, rs.shape[2]
            )
            self.center = i - 1

    def trimmed(self, row: int, live: List[List[int]]) -> List[np.ndarray]:
        """Row ``row``'s site tensors cut to its live ranks (fresh arrays)."""
        return [
            stack[row, : live[site][row], :, : live[site + 1][row]].copy()
            for site, stack in enumerate(self.stacks)
        ]

    def apply_two(
        self, q: int, gates: np.ndarray, policy: TruncationPolicy, log: GateShapeLog
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, "_ChainBlock | None"]:
        """Merge + gate + SVD + per-row truncation on sites ``(q, q + 1)``.

        Returns each row's ``(kept, discarded_weight, width)``, ``width``
        being the number of singular values a solo simulation's SVD has, for
        the rows the block held on entry.  Rows that keep more than the new
        bond's clamped width leave the block; they come back as a block of
        their own at their untruncated split (:meth:`_split_off`), or
        ``None`` when every row fits.
        """
        live_l, live_r = self.live[q], self.live[q + 2]
        log.add_two(live_l, self.live[q + 1], live_r)
        left, right = self.stacks[q], self.stacks[q + 1]
        g, chi_l, _p, chi_m = left.shape
        chi_r = right.shape[3]
        theta = np.matmul(
            left.reshape(g, chi_l * 2, chi_m), right.reshape(g, chi_m, 2 * chi_r)
        )
        theta = np.matmul(gates[:, None, :, :], theta.reshape(g, chi_l, 4, chi_r))
        u, s, vh = _stacked_svd(theta.reshape(g, chi_l * 2, 2 * chi_r))

        # The padding adds zero singular values; rank each row on its own
        # width only, so an exact-zero cutoff keeps what it keeps per point.
        width = 2 * np.minimum(live_l, live_r)
        if not (self.full[q] and self.full[q + 2]):
            s = s * _prefix_masks(s.shape[1])[width]
        kept, weight = policy.select_ranks(s)
        # The new bond's padded width: the whole SVD, the policy's cap or
        # the block's clamp.
        bond = min(s.shape[1], self.clamp)
        if policy.max_bond_dim is not None:
            bond = min(bond, policy.max_bond_dim)
        out = (kept, weight, width)
        over = kept > bond
        leavers = None
        if over.any():
            leavers = self._split_off(over, q, u, s, vh, kept)
            stay = ~over
            u, s, vh, kept = u[stay], s[stay], vh[stay], kept[stay]
            g = len(self.rows)
            if not g:
                return (*out, leavers)
        self._set_live(q + 1, kept, bond)
        self.stacks[q] = self._masked(u[:, :, :bond].reshape(g, chi_l, 2, bond), q)
        self.stacks[q + 1] = self._masked(
            (s[:, :bond, None] * vh[:, :bond, :]).reshape(g, bond, 2, chi_r), q + 1
        )
        self.center = q + 1
        return (*out, leavers)

    def _split_off(
        self,
        over: np.ndarray,
        q: int,
        u: np.ndarray,
        s: np.ndarray,
        vh: np.ndarray,
        kept: np.ndarray,
    ) -> "_ChainBlock":
        """Remove rows ``over`` and return them as a block holding their
        whole split of sites ``(q, q + 1)``, for :func:`_widened`."""
        _g, chi_l, _p, _m = self.stacks[q].shape
        chi_r = self.stacks[q + 1].shape[3]
        width = s.shape[1]
        leavers = self.take(over)
        leavers.stacks[q] = u[over].reshape(-1, chi_l, 2, width)
        leavers.stacks[q + 1] = (s[over, :, None] * vh[over]).reshape(
            -1, width, 2, chi_r
        )
        leavers.live[q + 1] = kept[over]
        leavers.center = q + 1
        stay = ~over
        self.rows = self.rows[stay]
        self.stacks = [stack[stay] for stack in self.stacks]
        self.live = [ranks[stay] for ranks in self.live]
        return leavers


def _padded_bonds(
    num_qubits: int,
    targets: Sequence[Tuple[int, ...]],
    clamp: int,
    max_bond_dim: int | None,
) -> List[int]:
    """Padded bond widths of a block clamped at ``clamp`` after ``targets``.

    Walks the shapes :class:`_ChainBlock` gives its stacks: a rightward QR
    step leaves bond ``i + 1`` the width ``min(2 l, r)``, a leftward one
    bond ``i`` the width ``min(l, 2 r)``, and a two-qubit gate on
    ``(q, q + 1)`` leaves bond ``q + 1`` the SVD width ``2 min(chi_q,
    chi_{q+2})`` clamped to ``clamp`` and ``max_bond_dim``.
    """
    bonds = [1] * (num_qubits + 1)
    center = 0
    for qubits in targets:
        if len(qubits) == 1:
            continue
        q = qubits[0]
        while center < q:
            bonds[center + 1] = min(2 * bonds[center], bonds[center + 1])
            center += 1
        while center > q:
            bonds[center] = min(bonds[center], 2 * bonds[center + 1])
            center -= 1
        bonds[q + 1] = min(2 * min(bonds[q], bonds[q + 2]), clamp)
        if max_bond_dim is not None:
            bonds[q + 1] = min(bonds[q + 1], max_bond_dim)
        center = q + 1
    return bonds


def _widened(
    leavers: _ChainBlock, clamp: int, bonds: List[int], q: int
) -> _ChainBlock:
    """``leavers`` zero-padded to the shapes ``bonds`` of the block clamped
    at ``clamp``, the split of ``(q, q + 1)`` cut to its new bond."""
    stacks = leavers.stacks
    cut = bonds[q + 1]
    stacks[q] = stacks[q][..., :cut]
    stacks[q + 1] = stacks[q + 1][:, :cut]
    padded = []
    for site, stack in enumerate(stacks):
        g, left, phys, right = stack.shape
        wide = np.zeros((g, bonds[site], phys, bonds[site + 1]), dtype=stack.dtype)
        wide[:, :left, :, :right] = stack
        padded.append(wide)
    block = _ChainBlock(leavers.rows, clamp, padded, leavers.live, leavers.center)
    # The split's columns (rows) past each row's kept rank are dropped.
    block.stacks[q] = block._masked(block.stacks[q], q)
    block.stacks[q + 1] = block._masked(block.stacks[q + 1], q + 1)
    return block


def _sweep(
    batch: GateStacks, policy: TruncationPolicy, log: GateShapeLog
) -> List[MPS]:
    """Simulate one structure group in one stacked sweep.

    Every member applies its own gate matrices to the same targets in the
    same order, so the sweep walks the shared op list once.  All rows start
    in one block clamped at :data:`FIRST_CLAMP`; a row that keeps more than
    its block's clamp on some bond moves, from that gate on, to the block of
    the next rung of :func:`clamp_ladder`, so a chunk holds at most one
    block per rung.  Returns the states in batch order;
    see the module docstring for the contract.
    """
    g = batch.num_circuits
    num_qubits = batch.num_qubits
    ladder = clamp_ladder(
        max(bond_caps(num_qubits, batch.targets, policy.max_bond_dim))
    )
    blocks = {ladder[0]: _ChainBlock.zero_state(np.arange(g), num_qubits, ladder[0])}
    num_two = sum(len(qubits) == 2 for qubits in batch.targets)
    # Per two-qubit gate and block: (gate, rows, kept, discarded weight,
    # width).
    splits: List[Tuple] = []
    gate = 0
    for step, (qubits, gates) in enumerate(zip(batch.targets, batch.gates)):
        q = qubits[0]
        arrivals: List[_ChainBlock] = []
        for block in blocks.values():
            block_gates = gates if len(block.rows) == g else gates[block.rows]
            if len(qubits) == 1:
                block.apply_single(q, block_gates, log)
                continue
            rows = block.rows
            block.move_center(q)
            kept, weight, width, leavers = block.apply_two(q, block_gates, policy, log)
            splits.append((gate, rows, kept, weight, width))
            if leavers is not None:
                arrivals.append(leavers)
        if len(qubits) == 2:
            gate += 1
        for leavers in arrivals:
            # A block's SVD has at most twice its clamp of singular values,
            # so the next rung holds every leaver.
            clamp = ladder[ladder.index(leavers.clamp) + 1]
            bonds = _padded_bonds(
                num_qubits, batch.targets[: step + 1], clamp, policy.max_bond_dim
            )
            arrived = _widened(leavers, clamp, bonds, q)
            if clamp in blocks:
                blocks[clamp].absorb(arrived)
            else:
                blocks[clamp] = arrived
        if arrivals:
            blocks = {w: b for w, b in sorted(blocks.items()) if len(b.rows)}

    if num_two and len(splits) == num_two:
        # One block of every row throughout: the columns, in gate order.
        kept_log, weight_log, width_log = (
            np.stack(column, axis=1) for column in list(zip(*splits))[2:]
        )
    elif num_two:
        kept_log = np.empty((g, num_two), dtype=np.intp)
        weight_log = np.empty((g, num_two))
        width_log = np.empty((g, num_two), dtype=np.intp)
        for column, rows, kept, weight, width in splits:
            kept_log[rows, column] = kept
            weight_log[rows, column] = weight
            width_log[rows, column] = width
    if num_two:
        # Sequential left fold per row, as a solo simulation accumulates.
        discarded = np.cumsum(weight_log, axis=1)[:, -1].tolist()
        kept_rows = kept_log.tolist()
        width_rows = width_log.tolist()
        weight_rows = weight_log.tolist()
    states: List[MPS | None] = [None] * g
    for block in blocks.values():
        live = [ranks.tolist() for ranks in block.live]
        for local, row in enumerate(block.rows.tolist()):
            state = MPS(
                block.trimmed(local, live), truncation=policy, center=block.center
            )
            if num_two:
                state._cumulative_discarded_weight = discarded[row]
                state._record_columns = (
                    kept_rows[row], width_rows[row], weight_rows[row]
                )
            state._gates_applied = len(batch.targets)
            state._two_qubit_gates_applied = num_two
            states[row] = state
    return states


def encode_circuits(
    circuits: Union[Sequence, GateStacks],
    policy: TruncationPolicy | None = None,
    log: GateShapeLog | None = None,
) -> List[MPS]:
    """Simulate a batch of routed circuits through padded stacked sweeps.

    ``circuits`` is either a :class:`GateStacks` batch (one sweep) or a
    sequence of circuits, which are grouped by
    :func:`circuit_structure_signature` and stacked (:func:`stack_circuits`)
    so each group runs its own straight sweep.  Mixed-structure batches are
    therefore supported.  Every resulting MPS depends on its own circuit
    only, byte for byte, and is within rounding of simulating that circuit
    with :meth:`MPS.apply_circuit` (see the module docstring).

    Parameters
    ----------
    circuits:
        :class:`GateStacks`, or routed :class:`~repro.circuits.Circuit`
        objects (adjacent two-qubit gates only).
    policy:
        Shared truncation policy (the paper's machine-precision default when
        omitted).
    log:
        Optional :class:`GateShapeLog` that accumulates per-row gate shapes
        for backend cost models.

    Returns
    -------
    The encoded states, in input order.
    """
    if policy is None:
        policy = TruncationPolicy()
    if log is None:
        log = GateShapeLog()
    if isinstance(circuits, GateStacks):
        groups = [(list(range(len(circuits))), circuits)] if len(circuits) else []
    else:
        circuits = list(circuits)
        groups = stack_circuits(circuits)
    log.structure_groups = len(groups)
    states: List[MPS | None] = [None] * sum(len(batch) for _, batch in groups)
    for indices, batch in groups:
        for original_idx, state in zip(indices, _sweep(batch, policy, log)):
            states[original_idx] = state
    return [s for s in states if s is not None]
