"""Chunked overlap evaluation for the engine (re-export of the MPS-layer sweep).

The engine's batched-overlap path fuses each state's leading sites into one
site -- the whole chain, its amplitude vector, on up to 8 qubits, else the
leading seven -- zero-pads every state of a chunk to one per-site bond
dimension, and runs the transfer-matrix sweep as one BLAS product for the
fused site plus two per remaining site.  The implementation lives in
:mod:`repro.mps.batched` -- it depends only on the MPS class, and
:mod:`repro.backends` uses it directly for
:meth:`~repro.backends.Backend.inner_product_batch` without importing the
engine package.  This module re-exports it as part of the engine's public
surface, which is the namespace consumers and the engine facade use.

:func:`rowwise_matmul` is the batch-composition-invariant matrix product the
serving paths use: BLAS picks different kernels (and therefore different
summation orders) for a 1-row and a 32-row left operand, so ``A @ B`` is not
bit-stable under re-batching.  Evaluating one row at a time makes every output
row depend only on its own input row, which is what lets the serving layer
promise byte-identical predictions regardless of how requests were coalesced.
"""

from __future__ import annotations

import numpy as np

from ..mps.batched import StackedStateBlock, batched_overlaps, query_form
from ..mps.encoding import encode_circuits

__all__ = [
    "batched_overlaps",
    "StackedStateBlock",
    "query_form",
    "encode_circuits",
    "rowwise_matmul",
]


def rowwise_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A @ B`` with per-row results independent of the row count of ``A``.

    Implemented as a non-optimised ``einsum``: its C kernel reduces each
    output element over the contraction axis in a fixed sequential order, so
    row ``i`` of the result depends only on row ``i`` of ``A`` -- unlike a
    GEMM call, whose blocking (and thus floating-point summation order)
    changes with the full matrix shape.  Intended for the serving-side
    products (``batch x m`` kernel rows times the ``m x r`` normalisation,
    features times the weight vector), where byte-identical results under
    re-batching matter more than peak GEMM throughput; the quadratic
    training-side products keep using plain ``@``.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    if A.ndim == 1:
        return np.einsum("j,j...->...", A, B)
    if A.ndim != 2:
        raise ValueError(f"rowwise_matmul expects a 1-D or 2-D left operand, got {A.ndim}-D")
    if B.ndim == 1:
        return np.einsum("ij,j->i", A, B)
    return np.einsum("ij,jk->ik", A, B)
