"""Batched circuit encoding: stacked gate sweeps over same-structure circuits.

Encoding a data point -- simulating its feature-map circuit into an MPS -- is
the linear half of the paper's workload.  All circuits built from one ansatz
share a *structure* (the same ordered sequence of gate targets; only the
angles differ per data point), so a micro-batch of encodings is one sweep over
a stack of tensors, fed by one ``(g, d, d)`` gate stack per operation
(:class:`GateStacks`):

* the engine builds the stacks straight from an angle table
  (:func:`repro.circuits.feature_map_gate_stacks`); a list of circuits is
  grouped by :func:`circuit_structure_signature` and each group's
  ``op.matrix()`` calls are stacked (:func:`stack_circuits`), so mixed
  structures still work and each group runs its own straight sweep;
* within a group every state starts as the same stacked ``|0...0>`` block and
  each gate is applied to the whole stack at once -- single- and two-qubit
  contractions are broadcast ``matmul`` gufuncs, QR center moves and the
  post-gate SVD use NumPy's stacked LAPACK gufuncs;
* truncation is decided **per slice**: the whole stack's singular values go
  through :meth:`TruncationPolicy.select_ranks`, whose row ``i`` is the
  :meth:`~TruncationPolicy.select_rank` a solo simulation would run, so
  members whose kept ranks diverge are split into new shape groups (in
  first-occurrence order) and the sweep continues per group.

Bit-identicality contract
-------------------------
Every per-slice operation of the stacked sweep is the *same gufunc* the
per-point path in :mod:`repro.mps.tensor_ops` issues (``matmul`` broadcast,
stacked ``np.linalg.qr`` via :func:`~repro.mps.tensor_ops.stacked_qr_right` /
:func:`~repro.mps.tensor_ops.stacked_rq_left`, stacked ``np.linalg.svd``
inner loops, row-wise rank selection), and NumPy evaluates gufunc
slices independently of how many ride in one call.  The resulting site
tensors are therefore **bit-identical** to per-point
:meth:`repro.mps.MPS.apply_circuit` simulation -- however the batch was
composed, permuted or partitioned -- which is the invariant the encoding
property suites pin down and the serving layer's byte-identical-predictions
contract extends to cold traffic.

The module lives in the :mod:`repro.mps` layer (it depends only on the MPS
machinery and NumPy); :mod:`repro.backends` wraps it with device cost-model
accounting (:meth:`repro.backends.Backend.simulate_batch`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from ..exceptions import SimulationError
from .mps import MPS
from .tensor_ops import robust_svd, stacked_qr_right, stacked_rq_left
from .truncation import TruncationPolicy, TruncationRecord

__all__ = [
    "circuit_structure_signature",
    "group_circuits_by_structure",
    "GateStacks",
    "stack_circuits",
    "GateShapeLog",
    "encode_circuits",
]


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
    """Per-gate tensor shapes seen by a stacked sweep, for cost models.

    Each entry describes one stacked gate application: ``("1q", count,
    chi_l, chi_r)`` or ``("2q", count, chi_l, chi_m, chi_r)`` where ``count``
    is the number of batch members sharing those (pre-gate) bond dimensions.
    Backends turn the log into modelled device seconds without the encoding
    layer depending on :mod:`repro.backends`.  ``structure_groups`` records
    how many distinct circuit structures the batch contained (filled by
    :func:`encode_circuits`, saving consumers a re-grouping pass).
    """

    entries: List[Tuple] = field(default_factory=list)
    structure_groups: int = 0

    def add_single(self, count: int, chi_l: int, chi_r: int) -> None:
        self.entries.append(("1q", count, chi_l, chi_r))

    def add_two(self, count: int, chi_l: int, chi_m: int, chi_r: int) -> None:
        self.entries.append(("2q", count, chi_l, chi_m, chi_r))

    @property
    def stacked_launches(self) -> int:
        """Number of stacked gate applications issued (fewer = more sharing)."""
        return len(self.entries)


class _ChainBlock:
    """One shape group of a stacked sweep: all site tensors stacked.

    ``stacks[site]`` has shape ``(g, l, 2, r)`` -- the ``g`` members' site
    tensors share every bond dimension, so each gate is one gufunc call.
    ``members`` holds the member ids (rows of the batch's gate stacks)
    riding in the stack slots.
    """

    __slots__ = ("members", "stacks")

    def __init__(self, members: np.ndarray, stacks: List[np.ndarray]) -> None:
        self.members = members
        self.stacks = stacks

    def gates(self, stack: np.ndarray) -> np.ndarray:
        """This block's rows of a batch-wide gate stack."""
        return stack if len(self.members) == len(stack) else stack[self.members]


def _stacked_svd(mats: np.ndarray):
    """Stacked SVD with the same robustness ladder as :func:`robust_svd`.

    ``np.linalg.svd`` on a stack runs the identical LAPACK routine per slice
    as the single-matrix call, so the factors are bit-identical to per-point
    :func:`split_theta`.  If any slice fails to converge the whole stack
    falls back to per-slice :func:`robust_svd` (which retries with scipy's
    gesvd driver) -- exactly what the per-point path would do.
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


def _apply_single(
    blocks: List[_ChainBlock], q: int, gates: np.ndarray, log: GateShapeLog
) -> None:
    """Apply one single-qubit gate (per-member matrices) to every block."""
    for block in blocks:
        stack = block.stacks[q]
        g, chi_l, _p, chi_r = stack.shape
        log.add_single(g, chi_l, chi_r)
        # Same broadcast matmul as tensor_ops.apply_single_qubit_gate,
        # with (batch, left-bond) as the gufunc loop axes.
        block.stacks[q] = np.matmul(block.gates(gates)[:, None, :, :], stack)


def _move_center(blocks: List[_ChainBlock], center: int, q: int) -> int:
    """Move the shared orthogonality centre of every block onto site ``q``.

    The same QR / QR-of-adjoint steps ``MPS._move_center`` performs per
    point, issued as the stacked gufuncs of :mod:`repro.mps.tensor_ops`.
    """
    while center < q:
        i = center
        for block in blocks:
            qs, rs = stacked_qr_right(block.stacks[i])
            kdim = qs.shape[3]
            block.stacks[i] = qs
            nxt = block.stacks[i + 1]
            g2, nl, nphys, nr = nxt.shape
            block.stacks[i + 1] = np.matmul(
                rs, nxt.reshape(g2, nl, nphys * nr)
            ).reshape(g2, kdim, nphys, nr)
        center = i + 1
    while center > q:
        i = center
        for block in blocks:
            rs, qs = stacked_rq_left(block.stacks[i])
            kdim = qs.shape[1]
            block.stacks[i] = qs
            prv = block.stacks[i - 1]
            g2, pl, pphys, pr = prv.shape
            block.stacks[i - 1] = np.matmul(
                prv.reshape(g2, pl * pphys, pr), rs
            ).reshape(g2, pl, pphys, kdim)
        center = i - 1
    return center


def _apply_two(
    blocks: List[_ChainBlock],
    q: int,
    gates: np.ndarray,
    policy: TruncationPolicy,
    log: GateShapeLog,
    discarded: np.ndarray,
    records: List[List[TruncationRecord]],
) -> List[_ChainBlock]:
    """Apply one adjacent two-qubit gate: merge + gate + SVD + regroup."""
    new_blocks: List[_ChainBlock] = []
    for block in blocks:
        left_stack = block.stacks[q]
        right_stack = block.stacks[q + 1]
        g, chi_l, _p, chi_m = left_stack.shape
        chi_r = right_stack.shape[3]
        log.add_two(g, chi_l, chi_m, chi_r)

        # merge_sites + apply_two_qubit_gate_to_theta + split_theta, each
        # as the stacked form of the identical gufunc.
        theta = np.matmul(
            left_stack.reshape(g, chi_l * 2, chi_m),
            right_stack.reshape(g, chi_m, 2 * chi_r),
        )
        theta = np.matmul(
            block.gates(gates)[:, None, :, :], theta.reshape(g, chi_l, 4, chi_r)
        )
        u, s, vh = _stacked_svd(theta.reshape(g, chi_l * 2, 2 * chi_r))

        # Per-slice truncation: each member keeps exactly the rank a solo
        # simulation would, then members regroup by their new bond.
        kept, weight = policy.select_ranks(s)
        before = int(s.shape[1])
        discarded[block.members] += weight
        ranks = kept.tolist()
        for member, k, w in zip(block.members.tolist(), ranks, weight.tolist()):
            records[member].append(
                TruncationRecord(
                    kept=k,
                    discarded=before - k,
                    discarded_weight=w,
                    bond_dimension_before=before,
                    bond_dimension_after=k,
                )
            )

        groups = dict.fromkeys(ranks)  # distinct ranks, first occurrence first
        for k in groups:
            if len(groups) == 1:
                sub_stacks = block.stacks
                u_sub, s_sub, vh_sub = u, s, vh
                sub_members = block.members
            else:
                sel = np.flatnonzero(kept == k)
                sub_stacks = [
                    st if site in (q, q + 1) else st[sel]
                    for site, st in enumerate(block.stacks)
                ]
                u_sub, s_sub, vh_sub = u[sel], s[sel], vh[sel]
                sub_members = block.members[sel]
            g2 = len(sub_members)
            sub_stacks[q] = u_sub[:, :, :k].reshape(g2, chi_l, 2, k)
            # Same elementwise absorption of the singular values into the
            # right factor as the per-point path (s[:, None, None] * vh).
            sub_stacks[q + 1] = (
                s_sub[:, :k, None] * vh_sub[:, :k, :]
            ).reshape(g2, k, 2, chi_r)
            new_blocks.append(_ChainBlock(sub_members, sub_stacks))
    return new_blocks


def _sweep(
    batch: GateStacks, policy: TruncationPolicy, log: GateShapeLog
) -> List[MPS]:
    """Simulate one structure group in a single stacked sweep.

    Every member applies its own gate matrices to the same targets in the
    same order, so the sweep walks the shared op list once.  Returns the
    states in batch order; see the module docstring for the
    bit-identicality contract.
    """
    g = batch.num_circuits
    num_qubits = batch.num_qubits
    # The stacked |0...0> start: every site needs its own stack array
    # because sites are updated independently during the sweep.
    zero = np.zeros((g, 1, 2, 1), dtype=np.complex128)
    zero[:, 0, 0, 0] = 1.0
    blocks = [_ChainBlock(np.arange(g), [zero.copy() for _ in range(num_qubits)])]
    discarded = np.zeros(g)
    records: List[List[TruncationRecord]] = [[] for _ in range(g)]
    center = 0
    for qubits, gates in zip(batch.targets, batch.gates):
        if len(qubits) == 1:
            _apply_single(blocks, qubits[0], gates, log)
            continue
        if len(qubits) != 2 or qubits[1] != qubits[0] + 1:
            raise SimulationError(
                "batched encoding requires a routed circuit "
                f"(adjacent two-qubit gates); got targets {qubits}"
            )
        q = qubits[0]
        center = _move_center(blocks, center, q)
        blocks = _apply_two(blocks, q, gates, policy, log, discarded, records)
        center = q + 1

    two_qubit_gates = sum(1 for qubits in batch.targets if len(qubits) == 2)
    states: List[MPS | None] = [None] * g
    for block in blocks:
        for slot, member in enumerate(block.members.tolist()):
            tensors = [block.stacks[site][slot].copy() for site in range(num_qubits)]
            state = MPS(tensors, truncation=policy, center=center)
            state._cumulative_discarded_weight = float(discarded[member])
            state._truncation_records = records[member]
            state._gates_applied = len(batch.targets)
            state._two_qubit_gates_applied = two_qubit_gates
            states[member] = state
    return [s for s in states if s is not None]


def encode_circuits(
    circuits: Union[Sequence, GateStacks],
    policy: TruncationPolicy | None = None,
    log: GateShapeLog | None = None,
) -> List[MPS]:
    """Simulate a batch of routed circuits through stacked gate sweeps.

    ``circuits`` is either a :class:`GateStacks` batch (one sweep) or a
    sequence of circuits, which are grouped by
    :func:`circuit_structure_signature` and stacked (:func:`stack_circuits`)
    so each group runs its own straight sweep; states that diverge in bond
    dimension regroup on the fly.  Mixed-structure batches are therefore
    supported, and every resulting MPS is bit-identical to simulating its
    circuit alone.

    Parameters
    ----------
    circuits:
        :class:`GateStacks`, or routed :class:`~repro.circuits.Circuit`
        objects (adjacent two-qubit gates only).
    policy:
        Shared truncation policy (the paper's machine-precision default when
        omitted).
    log:
        Optional :class:`GateShapeLog` that accumulates per-gate tensor
        shapes for backend cost models.

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
