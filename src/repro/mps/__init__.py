"""Matrix Product State simulation substrate.

This package provides a from-scratch, NumPy-based MPS circuit simulator: the
equivalent of the roles ITensors (CPU) and pytket-cutensornet (GPU) play in
the paper.  The public entry points are:

* :class:`~repro.mps.mps.MPS` -- the state representation with gate
  application, canonicalisation, SVD truncation and inner products.
* :class:`~repro.mps.truncation.TruncationPolicy` -- how singular values are
  discarded and how the accumulated error is tracked.
* :class:`~repro.mps.instrumented.InstrumentedMPS` -- an MPS subclass that
  records the per-gate memory / bond-dimension trace used by Figure 6.
* :mod:`~repro.mps.gates` -- the gate-matrix zoo (H, RZ, RXX, SWAP, ...).
"""

from .gates import (
    hadamard,
    identity2,
    pauli_x,
    pauli_y,
    pauli_z,
    rx,
    ry,
    rz,
    rxx,
    rzz,
    swap,
    cnot,
    controlled_z,
    gate_fidelity,
    is_unitary,
)
from .truncation import TruncationPolicy, TruncationRecord, truncate_singular_values
from .mps import MPS
from .batched import StackedStateBlock, batched_overlaps
from .encoding import FeatureMapBatch, encode_circuits
from .instrumented import InstrumentedMPS, MemoryTrace, MemorySample

__all__ = [
    "MPS",
    "FeatureMapBatch",
    "encode_circuits",
    "InstrumentedMPS",
    "MemoryTrace",
    "MemorySample",
    "TruncationPolicy",
    "TruncationRecord",
    "truncate_singular_values",
    "batched_overlaps",
    "StackedStateBlock",
    "hadamard",
    "identity2",
    "pauli_x",
    "pauli_y",
    "pauli_z",
    "rx",
    "ry",
    "rz",
    "rxx",
    "rzz",
    "swap",
    "cnot",
    "controlled_z",
    "gate_fidelity",
    "is_unitary",
]
