"""The Matrix Product State class: the core simulation substrate.

An :class:`MPS` on ``m`` qubits is a chain of ``m`` rank-3 tensors with index
convention ``T[left, physical, right]`` (physical dimension 2, boundary
virtual dimensions 1).  Gate application follows Fig. 1 of the paper:

* single-qubit gates contract directly with the site tensor and never change
  the bond dimension;
* two-qubit gates (restricted to adjacent sites -- routing of long-range
  gates is a circuit-level concern handled in :mod:`repro.circuits.routing`)
  merge the two site tensors, contract the gate, and split the result back by
  SVD, truncating singular values according to the configured
  :class:`~repro.mps.truncation.TruncationPolicy`.

The class maintains an *orthogonality centre*: every tensor to the left of
the centre is left-isometric and every tensor to the right is
right-isometric.  This "canonical form" is what makes local SVD truncation
globally optimal (the paper's footnote 2), and it also makes the norm and
local expectation values cheap to evaluate.

Inner products between two MPS are computed with the transfer-matrix sweep of
Fig. 2 which costs ``O(m * chi^3)``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..exceptions import BondDimensionError, SimulationError
from .tensor_ops import (
    absorb_factor_left,
    absorb_factor_right,
    apply_single_qubit_gate,
    apply_two_qubit_gate_to_theta,
    merge_sites,
    qr_right,
    robust_svd,
    rq_left,
    split_theta,
    tensor_memory_bytes,
)
from .truncation import TruncationPolicy, TruncationRecord, truncate_singular_values

__all__ = ["MPS"]


class MPS:
    """Matrix Product State of an ``m``-qubit register.

    Parameters
    ----------
    tensors:
        Sequence of rank-3 site tensors ``(left, 2, right)``.  Consecutive
        virtual dimensions must match and the boundary dimensions must be 1.
    truncation:
        Policy controlling SVD truncation after two-qubit gates.  Defaults to
        the paper's machine-precision cut-off.
    center:
        Index of the orthogonality centre if the caller already knows it;
        ``None`` means unknown (the state is canonicalised lazily on first
        use).

    Notes
    -----
    The class is deliberately backend-agnostic: it performs its numerics with
    whatever array module the tensors use (NumPy here).  The CPU and
    simulated-GPU backends both drive this exact class; they differ only in
    the device cost model layered on top (see :mod:`repro.backends`).
    """

    __slots__ = (
        "_tensors",
        "_policy",
        "_center",
        "_cumulative_discarded_weight",
        "_truncation_records",
        "_record_columns",
        "_gates_applied",
        "_two_qubit_gates_applied",
    )

    def __init__(
        self,
        tensors: Sequence[np.ndarray],
        truncation: TruncationPolicy | None = None,
        center: int | None = None,
    ) -> None:
        tensors = [np.asarray(t, dtype=np.complex128) for t in tensors]
        if not tensors:
            raise SimulationError("an MPS needs at least one site tensor")
        for i, t in enumerate(tensors):
            if t.ndim != 3:
                raise SimulationError(
                    f"site tensor {i} must be rank-3, got shape {t.shape}"
                )
            if t.shape[1] != 2:
                raise SimulationError(
                    f"site tensor {i} must have physical dimension 2, got {t.shape[1]}"
                )
        if tensors[0].shape[0] != 1 or tensors[-1].shape[2] != 1:
            raise SimulationError("boundary virtual dimensions must be 1")
        for i in range(len(tensors) - 1):
            if tensors[i].shape[2] != tensors[i + 1].shape[0]:
                raise SimulationError(
                    f"virtual bond mismatch between sites {i} and {i + 1}: "
                    f"{tensors[i].shape[2]} vs {tensors[i + 1].shape[0]}"
                )
        self._tensors: List[np.ndarray] = list(tensors)
        self._policy = truncation if truncation is not None else TruncationPolicy()
        self._center = center
        self._cumulative_discarded_weight = 0.0
        self._truncation_records: List[TruncationRecord] = []
        #: ``(kept, width, discarded_weight)`` lists, one entry per two-qubit
        #: gate, that a stacked encode leaves instead of records; turned
        #: into :class:`TruncationRecord` objects only when first read.
        self._record_columns: Tuple[List[int], List[int], List[float]] | None = None
        self._gates_applied = 0
        self._two_qubit_gates_applied = 0

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero_state(
        cls, num_qubits: int, truncation: TruncationPolicy | None = None
    ) -> "MPS":
        """Product state ``|0...0>``."""
        if num_qubits < 1:
            raise SimulationError("num_qubits must be >= 1")
        site = np.zeros((1, 2, 1), dtype=np.complex128)
        site[0, 0, 0] = 1.0
        return cls([site.copy() for _ in range(num_qubits)], truncation, center=0)

    @classmethod
    def plus_state(
        cls, num_qubits: int, truncation: TruncationPolicy | None = None
    ) -> "MPS":
        """Uniform superposition ``|+...+>`` -- the ansatz's initial state."""
        if num_qubits < 1:
            raise SimulationError("num_qubits must be >= 1")
        site = np.full((1, 2, 1), 1.0 / np.sqrt(2.0), dtype=np.complex128)
        return cls([site.copy() for _ in range(num_qubits)], truncation, center=0)

    @classmethod
    def from_statevector(
        cls,
        statevector: np.ndarray,
        truncation: TruncationPolicy | None = None,
    ) -> "MPS":
        """Exact MPS decomposition of a dense statevector.

        Used by tests to cross-validate the MPS engine against the dense
        simulator; the decomposition performs successive SVDs without any
        truncation so it is exact up to floating-point error.
        """
        vec = np.asarray(statevector, dtype=np.complex128).ravel()
        dim = vec.size
        num_qubits = int(np.log2(dim))
        if 2**num_qubits != dim:
            raise SimulationError(f"statevector length {dim} is not a power of two")
        tensors: List[np.ndarray] = []
        # remaining[left_bond, rest] with qubit 0 as the most significant bit.
        remaining = vec.reshape(1, dim)
        left_dim = 1
        for _site in range(num_qubits - 1):
            rest = remaining.shape[1] // 2
            mat = remaining.reshape(left_dim * 2, rest)
            u, s, vh = robust_svd(mat)
            k = s.shape[0]
            tensors.append(u.reshape(left_dim, 2, k))
            remaining = (s[:, None] * vh).reshape(k, rest)
            left_dim = k
        tensors.append(remaining.reshape(left_dim, 2, 1))
        return cls(tensors, truncation, center=num_qubits - 1)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        """Number of qubits (sites) in the chain."""
        return len(self._tensors)

    @property
    def tensors(self) -> List[np.ndarray]:
        """The site tensors (a shallow copy of the internal list)."""
        return list(self._tensors)

    @property
    def truncation_policy(self) -> TruncationPolicy:
        """The active truncation policy."""
        return self._policy

    @property
    def orthogonality_center(self) -> int | None:
        """Current orthogonality centre, or ``None`` if unknown."""
        return self._center

    @property
    def bond_dimensions(self) -> List[int]:
        """Dimensions of the ``m - 1`` internal virtual bonds."""
        return [t.shape[2] for t in self._tensors[:-1]]

    @property
    def max_bond_dimension(self) -> int:
        """Largest virtual bond dimension ``chi`` (1 for a product state)."""
        dims = self.bond_dimensions
        return max(dims) if dims else 1

    @property
    def memory_bytes(self) -> int:
        """Total bytes of all site-tensor entries (the paper's 'MiB per MPS')."""
        return sum(tensor_memory_bytes(t) for t in self._tensors)

    @property
    def cumulative_discarded_weight(self) -> float:
        """Sum of relative discarded squared singular values over all gates."""
        return self._cumulative_discarded_weight

    @property
    def truncation_records(self) -> List[TruncationRecord]:
        """Per-truncation records accumulated during simulation."""
        return list(self._records())

    def _records(self) -> List[TruncationRecord]:
        """The internal record list, built from the encode's columns first."""
        if self._record_columns is not None:
            self._truncation_records = [
                TruncationRecord(
                    kept=kept,
                    discarded=width - kept,
                    discarded_weight=weight,
                    bond_dimension_before=width,
                    bond_dimension_after=kept,
                )
                for kept, width, weight in zip(*self._record_columns)
            ]
            self._record_columns = None
        return self._truncation_records

    @property
    def gates_applied(self) -> int:
        """Total number of gates applied to this state."""
        return self._gates_applied

    @property
    def two_qubit_gates_applied(self) -> int:
        """Number of two-qubit gates applied (the simulation-cost driver)."""
        return self._two_qubit_gates_applied

    def copy(self) -> "MPS":
        """Deep copy of the state (tensors are copied; policy is shared)."""
        clone = MPS(
            [t.copy() for t in self._tensors],
            truncation=self._policy,
            center=self._center,
        )
        clone._cumulative_discarded_weight = self._cumulative_discarded_weight
        clone._truncation_records = list(self._truncation_records)
        clone._record_columns = self._record_columns
        clone._gates_applied = self._gates_applied
        clone._two_qubit_gates_applied = self._two_qubit_gates_applied
        return clone

    # ------------------------------------------------------------------
    # Canonicalisation
    # ------------------------------------------------------------------
    def canonicalize(self, center: int = 0) -> None:
        """Bring the MPS into mixed-canonical form about ``center``.

        After the call every site left of ``center`` is left-isometric and
        every site right of it is right-isometric.  The operation is a full
        QR sweep from both ends and costs ``O(m * chi^3)``.
        """
        m = self.num_qubits
        if not (0 <= center < m):
            raise SimulationError(f"center {center} out of range for {m} qubits")
        # Left-to-right QR sweep up to (excluding) the centre.
        for i in range(center):
            q, r = qr_right(self._tensors[i])
            self._tensors[i] = q
            self._tensors[i + 1] = absorb_factor_left(r, self._tensors[i + 1])
        # Right-to-left RQ sweep down to (excluding) the centre.
        for i in range(m - 1, center, -1):
            r, q = rq_left(self._tensors[i])
            self._tensors[i] = q
            self._tensors[i - 1] = absorb_factor_right(self._tensors[i - 1], r)
        self._center = center

    def _move_center(self, target: int) -> None:
        """Move the orthogonality centre to ``target`` with local QR steps."""
        if self._center is None:
            self.canonicalize(target)
            return
        while self._center < target:
            i = self._center
            q, r = qr_right(self._tensors[i])
            self._tensors[i] = q
            self._tensors[i + 1] = absorb_factor_left(r, self._tensors[i + 1])
            self._center = i + 1
        while self._center > target:
            i = self._center
            r, q = rq_left(self._tensors[i])
            self._tensors[i] = q
            self._tensors[i - 1] = absorb_factor_right(self._tensors[i - 1], r)
            self._center = i - 1

    # ------------------------------------------------------------------
    # Gate application
    # ------------------------------------------------------------------
    def apply_single_qubit_gate(self, qubit: int, gate: np.ndarray) -> None:
        """Apply a ``(2, 2)`` unitary to ``qubit`` (Fig. 1a)."""
        self._check_qubit(qubit)
        gate = np.asarray(gate, dtype=np.complex128)
        if gate.shape != (2, 2):
            raise SimulationError(f"single-qubit gate must be 2x2, got {gate.shape}")
        self._tensors[qubit] = apply_single_qubit_gate(self._tensors[qubit], gate)
        self._gates_applied += 1

    def apply_two_qubit_gate(
        self, qubit: int, gate: np.ndarray, canonicalize: bool = True
    ) -> TruncationRecord:
        """Apply a ``(4, 4)`` unitary to the adjacent pair ``(qubit, qubit+1)``.

        The three steps of Fig. 1(b): merge the two site tensors, contract
        the gate, split with SVD and truncate.  The orthogonality centre is
        first moved onto the left member of the pair so the truncation is
        optimal (unless ``canonicalize`` is ``False``, which exists only for
        the ablation benchmark quantifying what canonicalisation buys).

        Returns the :class:`TruncationRecord` of the split.
        """
        self._check_qubit(qubit)
        if qubit + 1 >= self.num_qubits:
            raise SimulationError(
                f"two-qubit gate at qubit {qubit} needs a right neighbour"
            )
        gate = np.asarray(gate, dtype=np.complex128)
        if gate.shape != (4, 4):
            raise SimulationError(f"two-qubit gate must be 4x4, got {gate.shape}")

        if canonicalize:
            self._move_center(qubit)

        theta = merge_sites(self._tensors[qubit], self._tensors[qubit + 1])
        theta = apply_two_qubit_gate_to_theta(theta, gate)
        u, s, vh = split_theta(theta)
        u, s, vh, record = truncate_singular_values(u, s, vh, self._policy)

        if (
            self._policy.max_bond_dim is not None
            and record.bond_dimension_after > self._policy.max_bond_dim
        ):  # pragma: no cover - policy enforces this already
            raise BondDimensionError(
                f"bond dimension {record.bond_dimension_after} exceeds cap "
                f"{self._policy.max_bond_dim}"
            )

        # Absorb the singular values into the right factor so the left site
        # stays left-isometric and the centre moves to ``qubit + 1``.
        # Canonical C-contiguous layout: einsum picks its summation order by
        # memory layout, so a truncated-slice view here would make downstream
        # overlaps depend on how the tensor was sliced.
        self._tensors[qubit] = np.ascontiguousarray(u)
        self._tensors[qubit + 1] = np.ascontiguousarray(s[:, None, None] * vh)
        if canonicalize:
            self._center = qubit + 1
        else:
            self._center = None

        self._cumulative_discarded_weight += record.discarded_weight
        self._records().append(record)
        self._gates_applied += 1
        self._two_qubit_gates_applied += 1
        return record

    def apply_gate(self, qubits: Sequence[int], gate: np.ndarray) -> None:
        """Dispatch on the number of target qubits.

        Two-qubit gates must act on adjacent qubits given in ascending order;
        long-range interactions are routed at the circuit level.
        """
        if len(qubits) == 1:
            self.apply_single_qubit_gate(qubits[0], gate)
        elif len(qubits) == 2:
            q0, q1 = qubits
            if q1 != q0 + 1:
                raise SimulationError(
                    "MPS two-qubit gates must act on adjacent qubits (q, q+1); "
                    f"got ({q0}, {q1}).  Route the circuit first."
                )
            self.apply_two_qubit_gate(q0, gate)
        else:
            raise SimulationError(
                f"only 1- and 2-qubit gates are supported, got {len(qubits)} targets"
            )

    def apply_circuit(self, circuit) -> None:
        """Apply every gate of a :class:`repro.circuits.Circuit` in order.

        The circuit must already be routed (only adjacent two-qubit gates).
        """
        for op in circuit.operations:
            self.apply_gate(op.qubits, op.matrix())

    # ------------------------------------------------------------------
    # Measurement-free observables
    # ------------------------------------------------------------------
    def norm(self) -> float:
        """The 2-norm ``sqrt(<psi|psi>)`` of the state."""
        return float(np.sqrt(abs(self.inner_product(self))))

    def normalize(self) -> None:
        """Rescale the state to unit norm (in place)."""
        n = self.norm()
        if n == 0.0:
            raise SimulationError("cannot normalise the zero state")
        # Scale the centre tensor (or site 0 if the centre is unknown).
        site = self._center if self._center is not None else 0
        self._tensors[site] = self._tensors[site] / n

    def inner_product(self, other: "MPS") -> complex:
        """Inner product ``<self|other>`` via the transfer-matrix sweep (Fig. 2).

        Cost is ``O(m * chi^3)`` where ``chi`` bounds the bond dimensions of
        both states.  The bra (``self``) is conjugated.
        """
        if other.num_qubits != self.num_qubits:
            raise SimulationError(
                "inner product requires equal qubit counts: "
                f"{self.num_qubits} vs {other.num_qubits}"
            )
        # env[a, b]: contraction of everything to the left, with `a` the open
        # bond of the bra chain and `b` the open bond of the ket chain.
        env = np.ones((1, 1), dtype=np.complex128)
        for bra_t, ket_t in zip(self._tensors, other._tensors):
            # env'[a', b'] = sum_{a, b, p} env[a, b] conj(bra[a, p, a']) ket[b, p, b']
            tmp = np.tensordot(env, np.conj(bra_t), axes=([0], [0]))  # [b, p, a']
            env = np.tensordot(tmp, ket_t, axes=([0, 1], [0, 1]))  # [a', b']
        return complex(env[0, 0])

    def fidelity(self, other: "MPS") -> float:
        """Squared overlap ``|<self|other>|^2`` -- the quantum-kernel entry."""
        return float(abs(self.inner_product(other)) ** 2)

    def expectation_single(self, qubit: int, operator: np.ndarray) -> complex:
        """Expectation value of a single-qubit operator ``<psi|O_q|psi>``.

        Used by the projected quantum kernel, which evaluates local
        observables instead of state overlaps.
        """
        self._check_qubit(qubit)
        operator = np.asarray(operator, dtype=np.complex128)
        if operator.shape != (2, 2):
            raise SimulationError(f"operator must be 2x2, got {operator.shape}")
        env = np.ones((1, 1), dtype=np.complex128)
        for i, t in enumerate(self._tensors):
            if i == qubit:
                op_t = apply_single_qubit_gate(t, operator)
            else:
                op_t = t
            tmp = np.tensordot(env, np.conj(t), axes=([0], [0]))  # [b, p, a']
            env = np.tensordot(tmp, op_t, axes=([0, 1], [0, 1]))
        return complex(env[0, 0])

    def to_statevector(self) -> np.ndarray:
        """Contract all virtual bonds and return the dense ``2^m`` vector.

        Only intended for small ``m`` (tests and validation); raises for more
        than 20 qubits to avoid accidentally allocating huge arrays.
        """
        if self.num_qubits > 20:
            raise SimulationError(
                "refusing to densify an MPS with more than 20 qubits"
            )
        result = self._tensors[0]  # shape (1, 2, r)
        for t in self._tensors[1:]:
            merged = np.tensordot(result, t, axes=([result.ndim - 1], [0]))
            result = merged
        # result shape: (1, 2, 2, ..., 2, 1)
        vec = result.reshape(-1)
        return vec

    def schmidt_values(self, bond: int) -> np.ndarray:
        """Schmidt coefficients across the bond between ``bond`` and ``bond+1``.

        Returns the singular values (descending) of the bipartition; their
        squares sum to the squared norm.  Useful for entanglement-entropy
        diagnostics in the analysis module.
        """
        if not (0 <= bond < self.num_qubits - 1):
            raise SimulationError(f"bond {bond} out of range")
        work = self.copy()
        work.canonicalize(bond)
        theta = merge_sites(work._tensors[bond], work._tensors[bond + 1])
        left, p0, p1, right = theta.shape
        mat = theta.reshape(left * p0, p1 * right)
        _u, s, _vh = robust_svd(mat)
        return s

    def entanglement_entropy(self, bond: int) -> float:
        """Von Neumann entropy of the bipartition at ``bond`` (natural log)."""
        s = self.schmidt_values(bond)
        p = (s * s).astype(float)
        total = p.sum()
        if total <= 0:
            return 0.0
        p = p / total
        nz = p[p > 1e-300]
        return float(-np.sum(nz * np.log(nz)))

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _check_qubit(self, qubit: int) -> None:
        if not (0 <= qubit < self.num_qubits):
            raise SimulationError(
                f"qubit index {qubit} out of range for {self.num_qubits} qubits"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MPS(num_qubits={self.num_qubits}, max_chi={self.max_bond_dimension}, "
            f"memory_bytes={self.memory_bytes})"
        )
