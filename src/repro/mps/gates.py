"""Gate-matrix zoo used by the circuit IR and the simulators.

All functions return freshly-allocated ``complex128`` NumPy arrays: ``(2, 2)``
for single-qubit gates and ``(4, 4)`` for two-qubit gates, with the two-qubit
basis ordered as ``|q0 q1> = |00>, |01>, |10>, |11>`` (q0 is the most
significant bit).  The parameterised rotations follow the standard convention

    RZ(theta)  = exp(-i theta Z / 2)
    RXX(theta) = exp(-i theta X (x) X / 2)

which matches pytket / Qiskit up to the factor-of-two convention noted in the
docstrings of the ansatz builder (:mod:`repro.circuits.ansatz`).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "identity2",
    "pauli_x",
    "pauli_y",
    "pauli_z",
    "hadamard",
    "phase",
    "rx",
    "ry",
    "rz",
    "rxx",
    "ryy",
    "rzz",
    "rz_stack",
    "rxx_stack",
    "swap",
    "cnot",
    "controlled_z",
    "is_unitary",
    "gate_fidelity",
    "kron",
]

_CTYPE = np.complex128


def identity2() -> np.ndarray:
    """2x2 identity."""
    return np.eye(2, dtype=_CTYPE)


def pauli_x() -> np.ndarray:
    """Pauli X."""
    return np.array([[0, 1], [1, 0]], dtype=_CTYPE)


def pauli_y() -> np.ndarray:
    """Pauli Y."""
    return np.array([[0, -1j], [1j, 0]], dtype=_CTYPE)


def pauli_z() -> np.ndarray:
    """Pauli Z."""
    return np.array([[1, 0], [0, -1]], dtype=_CTYPE)


def hadamard() -> np.ndarray:
    """Hadamard gate; maps |0> to |+> as used to prepare the initial state."""
    return np.array([[1, 1], [1, -1]], dtype=_CTYPE) / np.sqrt(2.0)


def phase(theta: float) -> np.ndarray:
    """Phase gate diag(1, e^{i theta})."""
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * theta)]], dtype=_CTYPE)


def rx(theta: float) -> np.ndarray:
    """Single-qubit rotation about X: exp(-i theta X / 2)."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=_CTYPE)


def ry(theta: float) -> np.ndarray:
    """Single-qubit rotation about Y: exp(-i theta Y / 2)."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=_CTYPE)


def rz(theta: float) -> np.ndarray:
    """Single-qubit rotation about Z: exp(-i theta Z / 2)."""
    return rz_stack(np.array([theta], dtype=float))[0]


def rxx(theta: float) -> np.ndarray:
    """Two-qubit rotation exp(-i theta X(x)X / 2); the ansatz's entangler."""
    return rxx_stack(np.array([theta], dtype=float))[0]


def ryy(theta: float) -> np.ndarray:
    """Two-qubit rotation exp(-i theta Y(x)Y / 2)."""
    return _two_qubit_rotation_stack(np.array([theta], dtype=float), pauli_y())[0]


def rzz(theta: float) -> np.ndarray:
    """Two-qubit rotation exp(-i theta Z(x)Z / 2)."""
    return _two_qubit_rotation_stack(np.array([theta], dtype=float), pauli_z())[0]


def rz_stack(thetas: np.ndarray) -> np.ndarray:
    """``(g, 2, 2)`` stack of :func:`rz` over a 1-D angle array.

    :func:`rz` is one row of this, so a stacked gate is byte-equal to the
    gate a per-point simulation applies.
    """
    thetas = np.ascontiguousarray(thetas, dtype=float)
    e = np.exp(-1j * thetas / 2.0)
    out = np.zeros((thetas.size, 2, 2), dtype=_CTYPE)
    out[:, 0, 0] = e
    out[:, 1, 1] = np.conj(e)
    return out


def _two_qubit_rotation_stack(thetas: np.ndarray, pauli: np.ndarray) -> np.ndarray:
    """exp(-i theta P (x) P / 2) for each angle, a single-qubit Pauli ``P``."""
    # Contiguous angles: NumPy's SIMD cos/sin loops and a lone angle's call
    # then take the same path.
    thetas = np.ascontiguousarray(thetas, dtype=float)
    pp = np.kron(pauli, pauli)
    c, s = np.cos(thetas / 2.0), np.sin(thetas / 2.0)
    return np.eye(4, dtype=_CTYPE) * c[:, None, None] - (1j * s)[:, None, None] * pp


def rxx_stack(thetas: np.ndarray) -> np.ndarray:
    """``(g, 4, 4)`` stack of :func:`rxx` over a 1-D angle array.

    :func:`rxx` is one row of this, so a stacked gate is byte-equal to the
    gate a per-point simulation applies.
    """
    return _two_qubit_rotation_stack(thetas, pauli_x())


def swap() -> np.ndarray:
    """SWAP gate used for routing long-range RXX gates onto the chain."""
    m = np.zeros((4, 4), dtype=_CTYPE)
    m[0, 0] = m[3, 3] = 1.0
    m[1, 2] = m[2, 1] = 1.0
    return m


def cnot() -> np.ndarray:
    """Controlled-X with the first qubit as control."""
    m = np.eye(4, dtype=_CTYPE)
    m[2, 2] = m[3, 3] = 0.0
    m[2, 3] = m[3, 2] = 1.0
    return m


def controlled_z() -> np.ndarray:
    """Controlled-Z gate."""
    m = np.eye(4, dtype=_CTYPE)
    m[3, 3] = -1.0
    return m


def kron(*mats: np.ndarray) -> np.ndarray:
    """Kronecker product of an arbitrary number of matrices, left to right."""
    out = np.array([[1.0]], dtype=_CTYPE)
    for m in mats:
        out = np.kron(out, m)
    return out


def is_unitary(matrix: np.ndarray, atol: float = 1e-12) -> bool:
    """Return ``True`` when ``matrix`` is unitary to within ``atol``."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    ident = np.eye(matrix.shape[0], dtype=_CTYPE)
    return bool(np.allclose(matrix.conj().T @ matrix, ident, atol=atol))


def gate_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Phase-insensitive fidelity ``|tr(A^dag B)| / dim`` between two gates.

    Returns 1.0 exactly when the two unitaries are equal up to a global
    phase; used by tests that verify decompositions and routing preserve the
    implemented operation.
    """
    a = np.asarray(a, dtype=_CTYPE)
    b = np.asarray(b, dtype=_CTYPE)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    dim = a.shape[0]
    return float(np.abs(np.trace(a.conj().T @ b)) / dim)
