"""Low-level tensor utilities shared by the MPS engine.

The MPS simulator needs only a handful of dense-tensor primitives:

* contraction of a gate with one or two site tensors,
* reshaping site tensors into matrices for SVD / QR,
* the SVD itself with a robust LAPACK fallback,
* splitting a two-site tensor back into two site tensors.

Everything here is written against plain NumPy arrays so that the "CPU" and
"simulated GPU" backends can share the same numerics (the paper stresses both
of its backends implement the identical algorithm; the runtime difference is
purely the execution substrate).

Site tensors use the index convention ``T[left, physical, right]`` -- i.e. a
rank-3 array whose first and last axes are the virtual bonds to the
neighbouring sites and whose middle axis is the physical (qubit) dimension 2.
Boundary sites have virtual dimension 1 on the outside.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.linalg

from ..exceptions import SimulationError

__all__ = [
    "robust_svd",
    "qr_right",
    "rq_left",
    "stacked_qr_right",
    "apply_single_qubit_gate",
    "merge_sites",
    "apply_two_qubit_gate_to_theta",
    "split_theta",
    "absorb_factor_left",
    "absorb_factor_right",
    "tensor_memory_bytes",
    "contract_virtual",
]


def robust_svd(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition with a divide-and-conquer -> GESVD fallback.

    ``numpy.linalg.svd`` (gesdd) occasionally fails to converge on
    ill-conditioned matrices; scipy's ``lapack_driver="gesvd"`` is slower but
    far more robust, so we retry with it before giving up.

    Returns ``(U, S, Vh)`` with ``S`` as a 1-D real array sorted descending.
    """
    try:
        return np.linalg.svd(matrix, full_matrices=False)
    except np.linalg.LinAlgError:
        try:
            return scipy.linalg.svd(
                matrix, full_matrices=False, lapack_driver="gesvd"
            )
        except Exception as exc:  # pragma: no cover - extremely unlikely
            raise SimulationError(f"SVD failed to converge: {exc}") from exc


def qr_right(tensor: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """QR-decompose a site tensor, pushing the R factor to the right.

    ``tensor`` has shape ``(l, p, r)``.  Returns ``(Q, R)`` where ``Q`` has
    shape ``(l, p, k)`` and is left-isometric (``sum_{l,p} Q*[l,p,a] Q[l,p,b]
    = delta_ab``), and ``R`` has shape ``(k, r)``.  Contracting ``Q @ R``
    reproduces the original tensor; this is the primitive behind
    left-canonicalisation.
    """
    left, phys, right = tensor.shape
    mat = tensor.reshape(left * phys, right)
    q, r = np.linalg.qr(mat)
    k = q.shape[1]
    return q.reshape(left, phys, k), r


def rq_left(tensor: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Factor a site tensor as ``R @ Q``, pushing the R factor to the left.

    ``tensor`` has shape ``(l, p, r)``.  Returns ``(R, Q)`` where ``Q`` has
    shape ``(k, p, r)`` and is right-isometric and ``R`` has shape
    ``(l, k)``.  Used for right-canonicalisation sweeps.

    Computed as a QR factorisation of the adjoint, ``A^H = Q~ R~  =>
    A = R~^H Q~^H``: any isometric split serves canonicalisation equally
    well, and ``np.linalg.qr`` -- unlike scipy's RQ -- has a stacked gufunc
    whose per-slice factors are bit-identical to this single-matrix call.
    Factors are returned C-contiguous because the GEMM/einsum calls
    downstream pick their summation order by memory layout.
    """
    left, phys, right = tensor.shape
    mat = tensor.reshape(left, phys * right)
    q_adj, r_adj = np.linalg.qr(mat.conj().T)
    k = q_adj.shape[1]
    r = np.ascontiguousarray(r_adj.conj().T)
    q = np.ascontiguousarray(q_adj.conj().T).reshape(k, phys, right)
    return r, q


def stacked_qr_right(stacks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Stacked form of :func:`qr_right` over a ``(g, l, p, r)`` site block.

    Returns ``(Q, R)`` with ``Q`` of shape ``(g, l, p, k)`` and ``R`` of shape
    ``(g, k, r)``.  ``np.linalg.qr`` is a gufunc whose per-slice factors are
    bit-identical to the single-matrix call, so pushing a whole stack's
    orthogonality centres rightward in one call produces exactly the tensors
    ``g`` separate :func:`qr_right` calls on the same slices would -- a
    row's factors never depend on the rest of the stack, the invariant the
    batched layer encode relies on.
    """
    g, left, phys, right = stacks.shape
    qs, rs = np.linalg.qr(stacks.reshape(g, left * phys, right))
    k = qs.shape[2]
    return qs.reshape(g, left, phys, k), rs


def apply_single_qubit_gate(tensor: np.ndarray, gate: np.ndarray) -> np.ndarray:
    """Contract a ``(2, 2)`` gate with the physical leg of a site tensor.

    This is Fig. 1(a) of the paper: single-qubit gates never change the
    virtual bond dimension.

    Expressed as a broadcast ``matmul`` (one ``(2, 2) @ (2, r)`` product per
    left-bond slice), the same gufunc the batched layer encode issues on
    many states stacked along a leading axis.
    """
    # T'[l, p', r] = sum_p G[p', p] T[l, p, r]
    return np.matmul(gate, tensor)


def merge_sites(left_tensor: np.ndarray, right_tensor: np.ndarray) -> np.ndarray:
    """Contract two adjacent site tensors into a rank-4 "theta" tensor.

    ``left_tensor`` has shape ``(l, 2, m)`` and ``right_tensor`` has shape
    ``(m, 2, r)``; the result has shape ``(l, 2, 2, r)``.  Formulated as one
    GEMM.
    """
    left, phys, mid = left_tensor.shape
    mid_r, phys_r, right = right_tensor.shape
    merged = np.matmul(
        left_tensor.reshape(left * phys, mid),
        right_tensor.reshape(mid_r, phys_r * right),
    )
    return merged.reshape(left, phys, phys_r, right)


def apply_two_qubit_gate_to_theta(theta: np.ndarray, gate: np.ndarray) -> np.ndarray:
    """Apply a ``(4, 4)`` two-qubit gate to a merged two-site tensor.

    ``theta`` has shape ``(l, 2, 2, r)`` with the left physical index being
    the more significant bit of the gate basis.  The returned tensor has the
    same shape.  The two physical legs are fused so the contraction is a
    broadcast ``(4, 4) @ (4, r)`` matmul per left-bond slice.
    """
    left, p0, p1, right = theta.shape
    # theta'[l, a, b, r] = sum_{p,q} G[ab, pq] theta[l, pq, r]
    out = np.matmul(gate, theta.reshape(left, p0 * p1, right))
    return out.reshape(left, p0, p1, right)


def absorb_factor_left(factor: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """Absorb a ``(k, l)`` bond factor into the left leg of a site tensor.

    ``tensor`` has shape ``(l, p, r)``; the result has shape ``(k, p, r)``.
    This is the canonicalisation step that pushes a QR/RQ factor onto the
    neighbouring site, expressed as one GEMM for gufunc-exact batching.
    """
    left, phys, right = tensor.shape
    out = np.matmul(factor, tensor.reshape(left, phys * right))
    return out.reshape(factor.shape[0], phys, right)


def absorb_factor_right(tensor: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Absorb an ``(r, k)`` bond factor into the right leg of a site tensor.

    ``tensor`` has shape ``(l, p, r)``; the result has shape ``(l, p, k)``.
    Mirror image of :func:`absorb_factor_left`.
    """
    left, phys, right = tensor.shape
    out = np.matmul(tensor.reshape(left * phys, right), factor)
    return out.reshape(left, phys, factor.shape[1])


def split_theta(
    theta: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD a merged two-site tensor back into site-shaped factors.

    ``theta`` has shape ``(l, 2, 2, r)``.  Returns ``(U, S, Vh)`` where
    ``U`` has shape ``(l, 2, k)``, ``S`` is the 1-D array of singular values
    and ``Vh`` has shape ``(k, 2, r)``.  No truncation is applied here; the
    caller decides how many singular values to keep (see
    :mod:`repro.mps.truncation`).
    """
    left, p0, p1, right = theta.shape
    mat = theta.reshape(left * p0, p1 * right)
    u, s, vh = robust_svd(mat)
    k = s.shape[0]
    return u.reshape(left, p0, k), s, vh.reshape(k, p1, right)


def contract_virtual(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Contract the right virtual bond of ``a`` with the left bond of ``b``.

    Both inputs are site tensors ``(l, p, m)`` and ``(m, q, r)``; the output
    is the rank-4 tensor ``(l, p, q, r)``.  Alias of :func:`merge_sites`, kept
    as a separate name for readability at call sites that are not gate
    applications (e.g. converting an MPS to a statevector).
    """
    return merge_sites(a, b)


def tensor_memory_bytes(tensor: np.ndarray) -> int:
    """Number of bytes used by the entries of a tensor."""
    return int(tensor.size * tensor.itemsize)
