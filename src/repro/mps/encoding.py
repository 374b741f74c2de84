"""Batched feature-map encoding: one diagonal MPO per ansatz layer.

Encoding a data point -- preparing its feature-map state as an MPS -- is the
linear half of the paper's workload.  The state is
``U(x)|+>^m`` with ``U(x) = [exp(-i H_XX(x)) exp(-i H_Z(x))]^r`` (equations
(4) and (5)).  Conjugated by a Hadamard on every qubit, ``H_Z`` becomes a sum
of ``X`` terms and ``H_XX`` a sum of commuting ``Z_i Z_j`` terms, so in that
*X frame* the start state is ``|0...0>``, each layer is one ``RX`` per site
followed by a diagonal phase, and a final Hadamard per site returns to the
computational basis.  A diagonal phase whose terms couple qubits across a
bond through ``k`` distinct spins on the smaller side is an exact MPO of
bond ``2 ** k`` (the bond index holds those spins' values), so a layer is
applied with no factorisation at all: an elementwise ``RX`` and one
broadcast multiply by the MPO tensor per site (:func:`_layer_mpo`).  This is the standard MPO-on-MPS step (Stoudenmire &
White, NJP 12, 055026 (2010)).

A layer multiplies every bond by its MPO bond, so the state is then
compressed.  First it is brought into left-canonical form, factorising
only where a bond can narrow: a factor that would be a square unitary is a
pure gauge change (Schollwoeck, Ann. Phys. 326, 96 (2011), section 4), so
such a site is folded into its neighbour through a fixed permutation
instead.  From the right end, each site whose left width is at least twice
its right one folds leftwards, which brings the right half to its
structural widths ``2 ** (m - b)``; then a sweep left to right folds each
site whose right width is at least twice its left one and QRs the rest
(:func:`_apply_layer`).  For the 8-qubit, ``d = 2`` benchmark ansatz that
leaves 3 QRs of 7 bonds.  Then one stacked SVD sweep right to left keeps,
for every row, :meth:`TruncationPolicy.select_ranks` of its own singular
values -- the paper's relative cut-off (equation (8)) applied to the
state's Schmidt spectrum at each bond.  The first layer of a circuit with
``r > 1`` is not compressed: its state is the MPO applied to a product
state, whose bonds are already the structural bound on its Schmidt ranks,
so compression could only drop exact zeros.  The last layer is always
compressed.

All rows of a batch go through every step together as one ``(g, l, 2, r)``
stack per site, zero-padded to shared widths.  A width is never the
batch's: the MPO, fold and QR steps give widths the structure fixes, and
after a bond's SVD each row's padded width is its own kept rank rounded up
the ladder :data:`FIRST_CLAMP`, ``2 * FIRST_CLAMP``, ... (and capped by the
SVD width and ``max_bond_dim``).  Rows whose widths part ways at a bond
carry on as separate stacks.  Every row tracks its *live* rank per bond, and
everything outside its live block is exactly zero, so each state is trimmed
to its live ranks at the end.

Encoding contract
-----------------
*A row's state is a function of the row alone.*  Every step acts on one
row's slice at shapes the structure and the row's own kept ranks fix (a
fold or a QR is chosen on those padded shapes alone), and NumPy evaluates
gufunc slices independently of how many ride in one call, so a row's site
tensors are byte-identical however the batch was composed, chunked,
permuted or partitioned -- alone (``g = 1``) or with any neighbours.  The
serving layer's byte-identical-predictions contract extends this to cold
traffic.

*Rows may be encoded in pieces, on threads.*  A batch of ``g`` rows whose
widest bond reaches :data:`MIN_PIECE_WIDTH` (16) is cut into ``min(cores,
g // MIN_PIECE_ROWS)`` contiguous row pieces (``MIN_PIECE_ROWS = 64``;
``cores`` is the process's CPU affinity), each encoded as a batch of its
own: the calling thread takes the first, short-lived threads started and
joined inside the call the rest.  By the clause above a piece's states are
its rows' own bytes, so the split cannot move a bit of any state, record
or discarded weight; it only lets the pieces' stacked SVDs, QRs and
matmuls, which NumPy runs without the GIL, use more than one core.  If a
piece raises, the batch is encoded again in one piece once every thread
has been joined, so the call raises what a one-piece encode raises.  Both
floors were measured on a 2-core x86-64 with one BLAS thread (the figures
are at their definitions): on the benchmark ansatz a 128-row encode runs
1.45x faster as two 64-row pieces, while two 16-row pieces lose; on bonds
of 2 or 4 an encode is mostly per-site Python under the GIL, and two
64-row pieces gain nothing.  So a serving flush (at most 32 rows) is never
split.

*Under the default cut-off a state is exact to double precision.*  It is
within ``1e-12`` infidelity of the row's gate-by-gate simulation
(:meth:`repro.engine.KernelEngine.simulate_row`) and of the dense
statevector of its circuit, and each bond keeps the rank
:meth:`TruncationPolicy.select_rank` gives on the exact state's Schmidt
spectrum at that bond (away from ties with the cut-off).

*Under a lossy ``max_bond_dim`` the error is bounded by the records.*  Each
compression SVD discards the relative weight ``eps_k`` of the state it
truncates, an orthogonal projection that turns the state by the angle
``arcsin(sqrt(eps_k))``; the layers between are unitary.  So against the
untruncated state ``psi``::

    1 - |<psi|phi>|^2 / <phi|phi>  <=  (sum_k sqrt(eps_k)) ** 2

with ``eps_k`` the ``discarded_weight`` of the state's
:attr:`~repro.mps.MPS.truncation_records`.

The module lives in the :mod:`repro.mps` layer (it depends only on the MPS
machinery and NumPy); :mod:`repro.backends` wraps it with counters and wall
time (:meth:`repro.backends.Backend.simulate_batch`).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..exceptions import SimulationError
from .mps import MPS
from .tensor_ops import robust_svd, stacked_qr_right
from .truncation import TruncationPolicy

__all__ = [
    "FeatureMapBatch",
    "FIRST_CLAMP",
    "MIN_PIECE_ROWS",
    "MIN_PIECE_WIDTH",
    "encode_circuits",
]

#: Lowest rung of the padded-width ladder.  It holds every rank the
#: interaction-distance-1 and -2 ansatze keep (at most 13 measured from 8 to
#: 16 qubits), so their rows never part ways; it is also the widest bond of
#: an 8-qubit register, so those stacks never part ways at all.
FIRST_CLAMP = 16

#: Fewest rows a piece of a split encode takes.  An encode of ``g`` rows
#: whose bonds reach :data:`MIN_PIECE_WIDTH` runs as ``min(cores, g //
#: MIN_PIECE_ROWS)`` contiguous pieces, one per thread.  On the benchmark
#: ansatz two pieces measured 0.87x one stack at 32 rows, 1.09x at 48,
#: 1.17x at 64, 1.21x at 96 and 1.45x at 128 (medians of 41 alternating
#: runs, one BLAS thread, a 2-core x86-64).  Each piece pays the per-call
#: Python overhead again while the pieces share the GIL, so 64 keeps every
#: piece at the size whose gain was measured: a serving flush (at most 32
#: rows) and a 96-row fit are never split, and a 128-row fit is two pieces
#: on any machine with two cores or more.
MIN_PIECE_ROWS = 64

#: Narrowest widest-bond at which an encode is split.  At 16 the stacked
#: SVDs and QRs, which NumPy runs without the GIL, are most of an encode: a
#: 128-row encode ran 1.33-1.71x faster in two pieces on every 8-qubit
#: ansatz with bonds of 16 tried, and 1.6-1.9x at 12 and 16 qubits.  At 2
#: or 4 (``d = 1`` with ``r <= 2``, or 4 qubits) an encode is mostly
#: per-site Python under the GIL, and two pieces measured 0.73-1.09x.
MIN_PIECE_WIDTH = 16

_SQRT_HALF = np.sqrt(0.5)


@dataclass(frozen=True)
class FeatureMapBatch:
    """The feature-map circuits of a batch of rows, as their angle table.

    Row ``i`` encodes ``[prod_e RXX_e(angles[i, m + e]) prod_q
    RZ_q(angles[i, q])]^layers H^m |0...0>`` with ``m = num_qubits`` and
    ``e`` indexing ``edges`` (pairs ``(i, j)``, ``i < j``): every layer
    applies the same angles.  Build one from feature rows with
    :func:`repro.circuits.feature_map_batch`.
    """

    num_qubits: int
    layers: int
    edges: Tuple[Tuple[int, int], ...]
    angles: np.ndarray

    def __len__(self) -> int:
        return len(self.angles)


@lru_cache(maxsize=None)
def _layer_mpo(num_qubits: int, edges: Tuple[Tuple[int, int], ...]):
    """Structure of the diagonal ``exp(-i sum_e theta_e Z_i Z_j / 2)`` MPO.

    Bond ``b`` carries the spins of the smaller side among the endpoints of
    the edges crossing it (left endpoints until the right side is smaller,
    right endpoints from then on, so every carried spin is passed on until
    its own site checks it).  Per site: the bond widths ``(2 ** len(in),
    2 ** len(out))``, the edges whose phase it applies (each edge at the
    first site that sees both its spins), their ``z_i z_j`` signs over the
    site's ``(in, own, out)`` spin assignments, and which assignments are
    consistent (a spin on two legs takes one value).
    """
    carry: List[Tuple[int, ...]] = [()]
    rightward = False
    for b in range(1, num_qubits):
        crossing = [(i, j) for i, j in edges if i < b <= j]
        left = tuple(sorted({i for i, _ in crossing}))
        right = tuple(sorted({j for _, j in crossing}))
        rightward = rightward or len(right) < len(left)
        carry.append(right if rightward else left)
    carry.append(())
    assigned: set = set()
    sites = []
    for b in range(num_qubits):
        legs = carry[b] + (b,) + carry[b + 1]
        column = {}
        for k, q in enumerate(legs):
            column.setdefault(q, k)
        mine = tuple(
            e
            for e, (i, j) in enumerate(edges)
            if e not in assigned and i in column and j in column
        )
        assigned.update(mine)
        # Spin assignments, the first leg the most significant bit.
        bits = (np.arange(2 ** len(legs))[:, None] >> np.arange(len(legs))[::-1]) & 1
        consistent = np.ones(len(bits), dtype=bool)
        for k, q in enumerate(legs):
            consistent &= bits[:, k] == bits[:, column[q]]
        z = 1.0 - 2.0 * bits
        signs = [z[:, column[edges[e][0]]] * z[:, column[edges[e][1]]] for e in mine]
        sites.append(
            (2 ** len(carry[b]), 2 ** len(carry[b + 1]), mine, signs, consistent)
        )
    if len(assigned) != len(edges):  # pragma: no cover - every edge is seen
        raise SimulationError("layer MPO left an edge unapplied")
    return tuple(sites)


def _layer_phases(
    num_qubits: int, edges: Tuple[Tuple[int, int], ...], thetas: np.ndarray
) -> List[np.ndarray]:
    """Each row's layer MPO: per site a ``(g, l, 2, r)`` tensor whose
    contraction over its bonds is the diagonal of ``exp(-i sum_e
    thetas[:, e] Z_i Z_j / 2)``, zero on inconsistent spin assignments."""
    g = len(thetas)
    mpo = []
    for hi, ho, mine, signs, consistent in _layer_mpo(num_qubits, edges):
        phase = np.zeros((g, len(consistent)))
        for e, sign in zip(mine, signs):
            phase += thetas[:, e, None] * sign
        mpo.append((np.exp(-0.5j * phase) * consistent).reshape(g, hi, 2, ho))
    return mpo


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
        us, ss, vhs = zip(*(robust_svd(mat) for mat in mats))
        return np.stack(us), np.stack(ss), np.stack(vhs)


def _rungs(kept: np.ndarray) -> np.ndarray:
    """Each rank rounded up the ladder ``FIRST_CLAMP * 2 ** k``."""
    rung = np.full_like(kept, FIRST_CLAMP)
    while (rung < kept).any():
        rung = np.where(rung < kept, 2 * rung, rung)
    return rung


@dataclass
class _Stack:
    """Rows that share every padded width: ``sites[q]`` is ``(g, l, 2, r)``,
    ``live[b]`` each row's live rank of bond ``b``, ``rows`` their batch
    positions."""

    rows: np.ndarray
    sites: List[np.ndarray]
    live: List[np.ndarray]

    def take(self, mask: np.ndarray) -> "_Stack":
        return _Stack(
            self.rows[mask],
            [site[mask] for site in self.sites],
            [ranks[mask] for ranks in self.live],
        )


def _grown(stack: _Stack, q: int, cos, sin, mpo: List[np.ndarray]) -> np.ndarray:
    """Site ``q`` after one ``RX`` and the layer's diagonal MPO (X frame).

    ``RX`` of row ``i`` is ``[[c, s], [s, c]]`` with ``c = cos[i, q]`` and
    ``s = sin[i, q]``, applied elementwise; the MPO tensor multiplies in
    broadcast, its bond legs joining the site's as the minor index.
    """
    rows = stack.rows if len(stack.rows) < len(cos) else slice(None)
    c, s = cos[rows, q, None, None], sin[rows, q, None, None]
    site = stack.sites[q]
    even, odd = site[:, :, 0], site[:, :, 1]
    site = np.stack([c * even + s * odd, s * even + c * odd], axis=2)
    phases = mpo[q][rows]
    g, left, _p, right = site.shape
    grown = site[:, :, None, :, :, None] * phases[:, None, :, :, None, :]
    return grown.reshape(g, left * phases.shape[1], 2, right * phases.shape[3])


def _apply_layer(
    stack: _Stack, cos, sin, mpo: List[np.ndarray], canonicalise: bool
) -> None:
    """Apply one layer to every site; with ``canonicalise``, leave every
    site but the last left-isometric, factorising only where a bond can
    narrow.

    A site whose factor would be a square unitary is folded into its
    neighbour through a fixed permutation instead.  From the right end, a
    site with left width ``l >= 2 r`` becomes the permutation that sends
    bond column ``(s, j)`` to ``2 j + s`` and its ``(l, 2 r)`` matrix moves
    into site ``b - 1``, so the right half reaches its structural widths
    ``2 ** (m - b)`` before any factorisation.  Then a sweep left to right
    folds each site with ``2 l <= r`` (it becomes the identity, its matrix
    moves into site ``b + 1``) and QRs the rest.  Each site is grown just
    before it is first folded or factorised.
    """
    sites = stack.sites
    bonds = [1] + [phases.shape[3] for phases in mpo]
    live = stack.live = [ranks * bond for ranks, bond in zip(stack.live, bonds)]
    if not canonicalise:
        stack.sites = [_grown(stack, q, cos, sin, mpo) for q in range(len(sites))]
        return
    # Right end: sites past ``c`` become permutations.
    c = len(sites) - 1
    sites[c] = _grown(stack, c, cos, sin, mpo)
    while sites[c].shape[1] >= 2 * sites[c].shape[3]:
        g, left, _p, right = sites[c].shape
        mat = sites[c].transpose(0, 1, 3, 2).reshape(g, left, 2 * right)
        mask = _prefix_masks(right)[live[c + 1]]
        sites[c] = _permutation(right) * mask[:, None, None, :]
        live[c] = 2 * live[c + 1]
        c -= 1
        prv = _grown(stack, c, cos, sin, mpo)
        sites[c] = np.matmul(prv.reshape(g, -1, left), mat).reshape(
            g, prv.shape[1], 2, 2 * right
        )
    if c:
        sites[0] = _grown(stack, 0, cos, sin, mpo)
    for b in range(len(sites) - 1):
        g, left, _p, right = sites[b].shape
        if 2 * left <= right:
            # Left end: the site becomes the identity, its matrix moves on.
            r = sites[b].reshape(g, 2 * left, right)
            q = _identity(left) * _prefix_masks(left)[live[b]][:, :, None, None]
            live[b + 1] = 2 * live[b]
        else:
            q, r = stacked_qr_right(sites[b])
            width = q.shape[3]
            rank = np.minimum(2 * live[b], live[b + 1])
            if (rank < width).any():
                # Columns past a row's rank meet only zero rows of R.
                q = q * _prefix_masks(width)[rank][:, None, None, :]
            live[b + 1] = rank
        sites[b] = q
        nxt = sites[b + 1] if b + 1 >= c else _grown(stack, b + 1, cos, sin, mpo)
        sites[b + 1] = np.matmul(r, nxt.reshape(g, nxt.shape[1], -1)).reshape(
            g, r.shape[1], 2, nxt.shape[3]
        )


@lru_cache(maxsize=None)
def _identity(left: int) -> np.ndarray:
    """``(1, l, 2, 2 l)`` identity from a left bond and a spin to their
    joint column ``2 a + s``."""
    return np.eye(2 * left, dtype=np.complex128).reshape(1, left, 2, 2 * left)


@lru_cache(maxsize=None)
def _permutation(right: int) -> np.ndarray:
    """``(1, 2 r, 2, r)`` permutation from the row ``2 j + s`` to a spin
    ``s`` and right bond column ``j``."""
    eye = np.eye(2 * right, dtype=np.complex128).reshape(1, 2 * right, right, 2)
    return np.ascontiguousarray(eye.transpose(0, 1, 3, 2))


def _truncate(
    stack: _Stack, bond: int, policy: TruncationPolicy, record, column: int
) -> List[_Stack]:
    """Stacked SVD sweep right to left from ``bond``, each row truncated on
    its own singular values.  Returns the stacks the rows end in: rows
    whose padded widths part ways at a bond carry on separately."""
    sites, live = stack.sites, stack.live
    for b in range(bond, 0, -1):
        g, wl, _p, wr = sites[b].shape
        u, s, vh = _stacked_svd(sites[b].reshape(g, wl, 2 * wr))
        k = s.shape[1]
        # Padding adds zero singular values: rank each row on its own width.
        width = np.minimum(live[b], 2 * live[b + 1])
        if (width < k).any():
            s = s * _prefix_masks(k)[width]
        kept, weight = policy.select_ranks(s)
        record(stack.rows, column, kept, width, weight)
        column += 1
        s = s * _prefix_masks(k)[kept]
        pad = np.minimum(k, _rungs(kept))
        if policy.max_bond_dim is not None:
            pad = np.minimum(pad, policy.max_bond_dim)
        widths = np.unique(pad)
        if len(widths) == 1:
            _cut(stack, b, int(widths[0]), u, s, vh, kept)
            continue
        # Rows part ways: each width carries on as a stack of its own.
        parts = []
        for w in widths:
            rows = pad == w
            part = stack.take(rows)
            _cut(part, b, int(w), u[rows], s[rows], vh[rows], kept[rows])
            parts.extend(_truncate(part, b - 1, policy, record, column))
        return parts
    return [stack]


def _cut(stack: _Stack, b: int, w: int, u, s, vh, kept) -> None:
    """Bond ``b`` cut to padded width ``w``: site ``b`` takes the
    right-isometric rows of ``Vh``, site ``b - 1`` absorbs ``U S`` (``s``
    already zero past each row's kept rank)."""
    sites = stack.sites
    n, wl, _p, wr = sites[b].shape
    head = vh[:, :w].reshape(n, w, 2, wr)
    if (kept < w).any():
        head = head * _prefix_masks(w)[kept][:, :, None, None]
    live_r = stack.live[b + 1]
    if (live_r < wr).any():
        head = head * _prefix_masks(wr)[live_r][:, None, None, :]
    sites[b] = head
    prv = sites[b - 1]
    sites[b - 1] = np.matmul(
        prv.reshape(n, -1, wl), u[:, :, :w] * s[:, None, :w]
    ).reshape(n, prv.shape[1], 2, w)
    stack.live[b] = kept


def encode_circuits(
    batch: FeatureMapBatch, policy: TruncationPolicy | None = None
) -> List[MPS]:
    """Encode every row of a :class:`FeatureMapBatch` into an MPS.

    Each state depends on its own row only, byte for byte, and is exact to
    double precision under the default cut-off (see the module docstring
    for the contract and the lossy bound).  Its
    :attr:`~repro.mps.MPS.truncation_records` hold one record per
    compression SVD, in sweep order; its orthogonality centre is site 0.

    Parameters
    ----------
    batch:
        The rows' angle table and the circuit structure.
    policy:
        Shared truncation policy (the paper's machine-precision default when
        omitted).

    Returns
    -------
    The encoded states, in row order.
    """
    if policy is None:
        policy = TruncationPolicy()
    m, g = batch.num_qubits, len(batch)
    angles = np.asarray(batch.angles, dtype=float)
    if angles.shape != (g, m + len(batch.edges)):
        raise SimulationError(
            f"angle table of shape {angles.shape} does not match "
            f"{m} qubits and {len(batch.edges)} edges"
        )
    if any(not 0 <= i < j < m for i, j in batch.edges):
        raise SimulationError(f"edges must be pairs i < j of the {m} qubits")
    if not g:
        return []
    bounds = _piece_bounds(g, _widest_bond(m, tuple(batch.edges), batch.layers))
    if len(bounds) > 2:
        pieces = _on_threads(
            lambda k: _encode_rows(batch, angles[bounds[k] : bounds[k + 1]], policy),
            len(bounds) - 1,
        )
        if pieces is not None:
            return [state for piece in pieces for state in piece]
    # One piece, or a split whose piece raised: the unsplit encode raises
    # exactly what a one-piece encode raises.
    return _encode_rows(batch, angles, policy)


def _cores() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # pragma: no cover - no affinity API


@lru_cache(maxsize=None)
def _widest_bond(num_qubits: int, edges: Tuple[Tuple[int, int], ...], layers: int) -> int:
    """Widest bond an encode of this structure reaches: at bond ``b`` the
    layer MPO's bond to the power ``layers``, capped by ``2 ** min(b, m - b)``."""
    return max(
        min(2 ** min(b, num_qubits - b), site[0] ** layers)
        for b, site in enumerate(_layer_mpo(num_qubits, edges))
    )


def _piece_bounds(rows: int, width: int) -> List[int]:
    """Row bounds of the contiguous pieces an encode of ``rows`` rows whose
    widest bond is ``width`` runs as."""
    pieces = 1
    if width >= MIN_PIECE_WIDTH:
        pieces = max(1, min(_cores(), rows // MIN_PIECE_ROWS))
    return [rows * k // pieces for k in range(pieces + 1)]


def _on_threads(work: Callable[[int], list], count: int) -> Optional[List[list]]:
    """``[work(k) for k in range(count)]``, ``k = 0`` on this thread and the
    rest on threads started here and joined before return; ``None`` if any
    ``work(k)`` raised or its thread could not start."""
    results: List[Optional[list]] = [None] * count

    def run(k: int) -> None:
        try:
            results[k] = work(k)
        except Exception:
            pass  # left None: the caller re-runs the batch unsplit

    threads = []
    try:
        for k in range(1, count):
            thread = threading.Thread(target=run, args=(k,))
            thread.start()
            threads.append(thread)
    except RuntimeError:  # no thread to be had: its piece stays undone
        pass
    else:
        run(0)
    finally:
        for thread in threads:
            thread.join()
    return None if any(result is None for result in results) else results


def _encode_rows(
    batch: FeatureMapBatch, angles: np.ndarray, policy: TruncationPolicy
) -> List[MPS]:
    """One stacked encode of the rows of ``angles`` (rows of ``batch``'s
    angle table): every layer, then the states in row order."""
    m, g = batch.num_qubits, len(angles)
    # RX(a) = cos(a / 2) - i sin(a / 2) X, the X-frame image of RZ(a).
    half = 0.5 * angles[:, :m]
    cos, sin = np.cos(half), -1j * np.sin(half)
    mpo = _layer_phases(m, tuple(batch.edges), angles[:, m:])

    zero = np.zeros((g, 1, 2, 1), dtype=np.complex128)
    zero[:, 0, 0, 0] = 1.0
    stacks = [
        _Stack(
            np.arange(g),
            [zero.copy() for _ in range(m)],
            [np.ones(g, dtype=np.intp)] * (m + 1),
        )
    ]
    # The first layer leaves the MPO on a product state, already at the
    # structural bound on its ranks: only a last layer compresses it.
    compressed = [layer for layer in range(batch.layers) if layer or batch.layers == 1]
    columns = len(compressed) * (m - 1)
    kept_log = np.zeros((g, columns), dtype=np.intp)
    width_log = np.zeros((g, columns), dtype=np.intp)
    weight_log = np.zeros((g, columns))

    def record(rows, column, kept, width, weight):
        kept_log[rows, column] = kept
        width_log[rows, column] = width
        weight_log[rows, column] = weight

    for layer in range(batch.layers):
        for stack in stacks:
            _apply_layer(stack, cos, sin, mpo, canonicalise=layer in compressed)
        if layer in compressed:
            column = compressed.index(layer) * (m - 1)
            stacks = [
                done
                for stack in stacks
                for done in _truncate(stack, m - 1, policy, record, column)
            ]

    # Sequential left fold per row, as a solo simulation accumulates.
    discarded = (
        np.cumsum(weight_log, axis=1)[:, -1].tolist() if columns else [0.0] * g
    )
    kept_rows, width_rows, weight_rows = (
        log.tolist() for log in (kept_log, width_log, weight_log)
    )
    gates = m + batch.layers * (m + len(batch.edges))
    states: List[MPS | None] = [None] * g
    for stack in stacks:
        # Back from the X frame: a Hadamard on every site.
        sites = [
            np.stack([site[:, :, 0] + site[:, :, 1], site[:, :, 0] - site[:, :, 1]], axis=2)
            * _SQRT_HALF
            for site in stack.sites
        ]
        live = [ranks.tolist() for ranks in stack.live]
        for local, row in enumerate(stack.rows.tolist()):
            state = MPS(
                [
                    site[local, : live[q][local], :, : live[q + 1][local]].copy()
                    for q, site in enumerate(sites)
                ],
                truncation=policy,
                center=0,
            )
            state._cumulative_discarded_weight = discarded[row]
            state._record_columns = (kept_rows[row], width_rows[row], weight_rows[row])
            state._gates_applied = gates
            state._two_qubit_gates_applied = batch.layers * len(batch.edges)
            states[row] = state
    return states
