"""Gate kinds and the :class:`Operation` record used by the circuit IR."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from ..exceptions import CircuitError
from ..mps import gates as gatelib

__all__ = ["GateKind", "Operation", "stacked_matrices"]


class GateKind(str, enum.Enum):
    """Enumeration of the gates the framework emits.

    The ansatz only needs H, RZ, RXX and SWAP; the remaining kinds exist so
    the IR is useful for the examples and for users extending the feature
    map (e.g. with RZZ interactions).
    """

    H = "H"
    X = "X"
    Y = "Y"
    Z = "Z"
    RX = "RX"
    RY = "RY"
    RZ = "RZ"
    RXX = "RXX"
    RYY = "RYY"
    RZZ = "RZZ"
    SWAP = "SWAP"
    CNOT = "CNOT"
    CZ = "CZ"

    @property
    def num_qubits(self) -> int:
        """Arity of the gate."""
        return 1 if self in _SINGLE_QUBIT_KINDS else 2

    @property
    def is_parameterised(self) -> bool:
        """Whether the gate takes a rotation angle."""
        return self in _PARAMETERISED_KINDS


_SINGLE_QUBIT_KINDS = {
    GateKind.H,
    GateKind.X,
    GateKind.Y,
    GateKind.Z,
    GateKind.RX,
    GateKind.RY,
    GateKind.RZ,
}

_PARAMETERISED_KINDS = {
    GateKind.RX,
    GateKind.RY,
    GateKind.RZ,
    GateKind.RXX,
    GateKind.RYY,
    GateKind.RZZ,
}

_FIXED_MATRICES = {
    GateKind.H: gatelib.hadamard,
    GateKind.X: gatelib.pauli_x,
    GateKind.Y: gatelib.pauli_y,
    GateKind.Z: gatelib.pauli_z,
    GateKind.SWAP: gatelib.swap,
    GateKind.CNOT: gatelib.cnot,
    GateKind.CZ: gatelib.controlled_z,
}

_PARAM_MATRICES = {
    GateKind.RX: gatelib.rx,
    GateKind.RY: gatelib.ry,
    GateKind.RZ: gatelib.rz,
    GateKind.RXX: gatelib.rxx,
    GateKind.RYY: gatelib.ryy,
    GateKind.RZZ: gatelib.rzz,
}


#: Stacked constructors of the parameterised gates the feature map emits.
_STACKED_PARAM_MATRICES = {
    GateKind.RZ: gatelib.rz_stack,
    GateKind.RXX: gatelib.rxx_stack,
}


@lru_cache(maxsize=65536)
def _cached_matrix(kind: GateKind, angle: float) -> np.ndarray:
    """Memoised gate-matrix construction, returned as a read-only array.

    Keyed by ``(kind, angle)``; consumers only ever contract the matrix, so
    sharing one frozen instance is safe and skips the ``kron``-based
    construction cost on every repeat (fixed prep/routing gates, the
    layer-repeated data angles, and any hot query re-encoding).
    """
    if kind in _FIXED_MATRICES:
        matrix = _FIXED_MATRICES[kind]()
    else:
        matrix = _PARAM_MATRICES[kind](angle)
    matrix.flags.writeable = False
    return matrix


@dataclass(frozen=True)
class Operation:
    """One gate applied to specific qubits.

    Attributes
    ----------
    kind:
        Which gate.
    qubits:
        Target qubit indices; length must match the gate arity.  Two-qubit
        targets may be non-adjacent before routing.
    angle:
        Rotation angle for parameterised gates, ``0.0`` otherwise.
    tag:
        Free-form label (e.g. ``"HZ"``, ``"HXX"``, ``"routing"``) used by
        analysis and by the routing pass to identify inserted SWAPs.
    """

    kind: GateKind
    qubits: Tuple[int, ...]
    angle: float = 0.0
    tag: str = ""

    def __post_init__(self) -> None:
        qubits = tuple(int(q) for q in self.qubits)
        object.__setattr__(self, "qubits", qubits)
        if len(qubits) != self.kind.num_qubits:
            raise CircuitError(
                f"{self.kind.value} acts on {self.kind.num_qubits} qubit(s), "
                f"got targets {qubits}"
            )
        if len(set(qubits)) != len(qubits):
            raise CircuitError(f"duplicate target qubits in {qubits}")
        if any(q < 0 for q in qubits):
            raise CircuitError(f"negative qubit index in {qubits}")
        if not self.kind.is_parameterised and self.angle != 0.0:
            raise CircuitError(
                f"{self.kind.value} takes no angle but angle={self.angle} was given"
            )

    @property
    def num_qubits(self) -> int:
        """Arity of the operation."""
        return self.kind.num_qubits

    @property
    def is_two_qubit(self) -> bool:
        """Whether this operation entangles two qubits."""
        return self.kind.num_qubits == 2

    def matrix(self) -> np.ndarray:
        """Dense unitary matrix of the operation.

        For two-qubit gates the first listed qubit is the most significant
        bit of the matrix basis.  Matrices are memoised by ``(kind, angle)``
        and returned read-only: the prep/routing layers reuse a handful of
        fixed gates and the ansatz repeats each data angle once per layer,
        so encoding-heavy paths (cold serving in particular) skip most
        matrix rebuilds.
        """
        return _cached_matrix(self.kind, self.angle)

    def remap(self, mapping: dict[int, int]) -> "Operation":
        """Return a copy acting on relabelled qubits."""
        return Operation(
            kind=self.kind,
            qubits=tuple(mapping.get(q, q) for q in self.qubits),
            angle=self.angle,
            tag=self.tag,
        )


def stacked_matrices(kind: GateKind, angles: np.ndarray) -> np.ndarray:
    """``(g, d, d)`` stack of the matrices of ``kind`` at each of ``angles``.

    Row ``i`` is byte-equal to ``Operation(kind, ..., angle=angles[i]).matrix()``.
    A fixed gate comes back as a read-only broadcast of its one matrix.
    """
    angles = np.asarray(angles, dtype=float)
    if kind in _STACKED_PARAM_MATRICES:
        return _STACKED_PARAM_MATRICES[kind](angles)
    if kind in _FIXED_MATRICES:
        matrix = _cached_matrix(kind, 0.0)
        return np.broadcast_to(matrix, (angles.size,) + matrix.shape)
    raise CircuitError(f"no stacked construction for {kind.value} gates")
