"""One padded transfer sweep for every MPS overlap.

The overlap ``<bra|ket>`` is the transfer-matrix sweep of Fig. 2: a left
environment ``env[b, a]`` (``b`` the open ket bond, ``a`` the open bra bond)
is pushed through the chain one site at a time, so BLAS does the
arithmetic.  Each state's leading run of ``k`` sites (:func:`_leading_run`)
is first fused, per state and from the state's own unpadded tensors, into
one site of shape ``(1, 2**k, chi_k)``.  The environment left of site 0 is
all ones, so the sweep's first step is the single product ``env =
ket_run^T @ conj(bra_run)``: ``(b x 2**k) @ (2**k x a)``.

* A chain of up to 8 sites is fused whole (``k = N``, ``chi_N = 1``): a
  run is the state's ``2**N`` amplitudes, an overlap is one GEMV of two
  amplitude vectors, at most two :data:`_K_SLICE` slices, and no site is
  left to sweep.
* A longer chain fuses its leading ``k = 7`` sites, one 128-term slice, and
  sweeps every later site with two ``np.matmul`` calls:

  1. ``tmp = env @ conj(bra)``: ``(b x a) @ (a x 2a')``, read as ``(2b x a')``;
  2. ``env' = ket^T @ tmp``: ``(b' x 2b) @ (2b x a')``.

States swept together need not share bond dimensions: each side of the sweep
is zero-padded to its largest bond per site.  Zero padding leaves the exact
sum unchanged, and these rules keep BLAS doing the same floating-point work
on the real entries whatever the padding:

* interior bonds are rounded up to a multiple of :data:`_BOND_QUANTUM`, so
  every product dimension but the unit boundaries spans whole micro-kernel
  tiles (OpenBLAS rounds edge tiles differently);
* no product has one row: NumPy sends a ``(1 x K) @ (K x 1)`` product to
  ``dot``, whose bytes differ from GEMV's, so a block keeps one spare zero
  state after its runs (a tail slices past it, so it keeps the spare too)
  and a pair's one-row ket run gets a zero second row;
* contractions are cut into fixed :data:`_K_SLICE`-term slices summed in
  order, so BLAS never splits one at a size-dependent point;
* a leading run is fused before any padding, from one state's tensors at
  their own shapes, so its bytes depend on that state alone.

:class:`QueryForm` holds what the bra side of a sweep reads from one state
-- its conjugated fused run and site operands, padded to its own rounded
bonds -- and :func:`query_form` builds it once per state and caches it on
the :class:`MPS`.  :class:`StackedStateBlock` pads a fixed set of states (the
serving landmarks, the Nystrom ``K_nm`` fit, exact-model scoring, the
training Gram) once and sweeps a call's queries against all of them, or
against a tail of them (:meth:`StackedStateBlock.tail`, the Gram's
triangular rows): queries that share their padded bonds run as one stack
along the batch axis, one product per slice of the fused runs plus two per
remaining site per :data:`_STACK_QUERIES` queries, so on 8 qubits a serving
flush takes 2 ``np.matmul`` calls whatever its size.  The stack never
widens a product: each query's slice is the BLAS call it gets alone.
:func:`batched_overlaps` sweeps a chunk of unrelated pairs as stacked
per-pair products, the per-pair reference the block is checked against.
Contract: a value is byte-identical whatever the batch composition -- a
query alone or in any subset or order, against a whole block or a tail of
it, any chunk size, either entry point -- and within ``1e-12`` of
:meth:`MPS.inner_product`.
Identity holds for one BLAS build, core type and thread count, as for any
BLAS result.

The module depends only on the MPS class and NumPy, so :mod:`repro.backends`
uses it without the engine package; :mod:`repro.engine.batching` re-exports
it.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..exceptions import SimulationError
from .mps import MPS

__all__ = ["batched_overlaps", "query_form", "QueryForm", "StackedStateBlock"]

#: Interior bonds are padded to a multiple of this (one micro-kernel tile).
_BOND_QUANTUM = 4
#: Longest contraction handed to one BLAS call (below OpenBLAS's K blocking).
_K_SLICE = 128
#: Most leading sites fused into the first: ``2**7`` terms fill one slice.
_FUSED_SITES = _K_SLICE.bit_length() - 1
#: Longest chain fused whole: its ``2**8`` amplitudes fill two slices.
_WHOLE_CHAIN = _FUSED_SITES + 1
#: Most queries one stacked sweep holds, a full serving flush (the default
#: ``max_batch``).  Its temporaries grow with the stack: sweeping a 128-row
#: ``K_nm`` fit as one stack raised the serving benchmark's peak RSS by 6 MB.
_STACK_QUERIES = 32
#: Bra padding: operands are padded with zeros and then conjugated.
_CONJ_ZERO = complex(0.0, -0.0)

Chain = List[np.ndarray]


def _leading_run(num_qubits: int) -> int:
    """How many leading sites a sweep fuses into its first step.

    A chain of up to :data:`_WHOLE_CHAIN` sites is fused whole, so its
    overlap is one product of two amplitude vectors; a longer one fuses
    :data:`_FUSED_SITES` and sweeps the rest.
    """
    return num_qubits if num_qubits <= _WHOLE_CHAIN else _FUSED_SITES


def _bond_dims(chains: Sequence[Chain]) -> List[int]:
    """Padded dimension of each of the ``num_qubits + 1`` bonds of ``chains``."""
    dims = [1] * (len(chains[0]) + 1)
    for tensors in chains:
        for site in range(1, len(tensors)):
            dims[site] = max(dims[site], tensors[site].shape[0])
    for site in range(1, len(dims) - 1):
        dims[site] = -(-dims[site] // _BOND_QUANTUM) * _BOND_QUANTUM
    return dims


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` with the contraction cut into fixed ``_K_SLICE`` slices."""
    out = np.matmul(a[..., :_K_SLICE], b[..., :_K_SLICE, :])
    for start in range(_K_SLICE, a.shape[-1], _K_SLICE):
        stop = start + _K_SLICE
        out += np.matmul(a[..., start:stop], b[..., start:stop, :])
    return out


def _padded(chains: Sequence[Chain], dims: List[int], site: int) -> np.ndarray:
    """Site tensors of ``chains`` zero-padded and stacked to ``(Z, l, 2, r)``."""
    out = np.zeros((len(chains), dims[site], 2, dims[site + 1]), dtype=np.complex128)
    for z, tensors in enumerate(chains):
        tensor = tensors[site]
        out[z, : tensor.shape[0], :, : tensor.shape[2]] = tensor
    return out


def _bra_operands(chains: Sequence[Chain], dims: List[int], site: int) -> np.ndarray:
    """Step-1 operands ``conj(bra)`` as ``(Z, a, 2a')``."""
    out = _padded(chains, dims, site)
    np.conjugate(out, out=out)
    return out.reshape(len(chains), dims[site], -1)


def _ket_operands(chains: Sequence[Chain], dims: List[int], site: int) -> np.ndarray:
    """Step-2 operands ``ket^T`` as ``(Z, b', 2b)``, column ``b*2 + p``."""
    out = _padded(chains, dims, site).transpose(0, 3, 1, 2)
    return out.reshape(len(chains), dims[site + 1], -1)


def _fused_run(tensors: Chain, k: int) -> np.ndarray:
    """Sites ``0..k-1`` of one state contracted to a ``(2**k, chi_k)`` matrix.

    Row ``p`` is the physical configuration ``p_0 ... p_{k-1}`` read as a
    binary number; for ``k == N`` the run is the state's amplitude vector.
    The products run at the state's own shapes, before any padding, so the
    bytes depend on this state alone.
    """
    run = tensors[0].reshape(-1, tensors[0].shape[2])
    for tensor in tensors[1:k]:
        run = (run @ tensor.reshape(tensor.shape[0], -1)).reshape(-1, tensor.shape[2])
    return run


class QueryForm:
    """Everything the bra side of a sweep reads from one state.

    ``run`` is the conjugated fused leading run, ``(2**k, chi_k)`` (on up
    to 8 qubits the ``(2**N, 1)`` amplitude vector); ``sites`` holds the
    step-1 operands ``conj(bra)`` of sites ``k..N-1`` as ``(a, 2a')``.  Both
    are zero-padded to the state's own rounded bonds, which ``bonds`` lists
    from bond ``k`` on, so the forms of one shape group stack as they are.
    Built once from the state's unpadded tensors, so its bytes depend on
    that state alone.
    """

    __slots__ = ("run", "sites", "bonds")

    def __init__(self, state: MPS) -> None:
        chain = state.tensors
        dims = _bond_dims([chain])
        k = _leading_run(len(chain))
        run = _fused_run(chain, k)
        self.run = np.full((run.shape[0], dims[k]), _CONJ_ZERO)
        np.conjugate(run, out=self.run[:, : run.shape[1]])
        self.sites = [_bra_operands([chain], dims, site)[0] for site in range(k, len(chain))]
        self.bonds = tuple(dims[k:])


def query_form(state: MPS) -> QueryForm:
    """The :class:`QueryForm` of ``state``, built on first use and cached on it.

    Stored states are immutable by contract; every mutating :class:`MPS`
    method drops the cache, :meth:`MPS.copy` does not carry it, and it is
    never pickled.  Threads that race to build one build the same bytes.
    """
    form = state._query_form
    if form is None:
        form = state._query_form = QueryForm(state)
    return form


def _bra_stacks(
    forms: Sequence[QueryForm], bonds: Sequence[int], k: int
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Bra operands of ``forms`` padded to ``bonds`` (bond ``k`` on) and stacked.

    Returns the first-step ``(Z, 2**k, a)`` stack and one step-1
    ``(Z, a, 2a')`` stack per site ``k..N-1``.  Padding is the conjugate of
    zero, as in a form, so an entry's bytes do not depend on which of the
    two padded it.
    """
    z = len(forms)
    runs = np.full((z, 2**k, bonds[0]), _CONJ_ZERO)
    for slot, form in enumerate(forms):
        runs[slot, :, : form.run.shape[1]] = form.run
    sites = []
    for i, (left, right) in enumerate(zip(bonds, bonds[1:])):
        out = np.full((z, left, 2, right), _CONJ_ZERO)
        for slot, form in enumerate(forms):
            bra = form.sites[i]
            out[slot, : bra.shape[0], :, : bra.shape[1] // 2] = bra.reshape(
                bra.shape[0], 2, -1
            )
        sites.append(out.reshape(z, left, -1))
    return runs, sites


def _ket_runs(forms: Sequence[QueryForm], states: int, rows: int) -> np.ndarray:
    """First-step operands ``ket_run^T`` as ``(states, rows, 2**k)``.

    Zero past the forms' own states and rows.  Read from the forms'
    conjugated runs: conjugating back is exact.
    """
    out = np.zeros((states, rows, forms[0].run.shape[0]), dtype=np.complex128)
    for z, form in enumerate(forms):
        np.conjugate(form.run.T, out=out[z, : form.run.shape[1]])
    return out


def _distinct(
    states: Sequence[MPS], num_qubits: int, message: str
) -> Tuple[List[MPS], np.ndarray | None]:
    """The distinct ``states`` and the index expanding them back.

    The index is ``None`` when all are distinct; a flush may repeat a row.
    """
    if any(len(state._tensors) != num_qubits for state in states):
        raise SimulationError(message)
    distinct = {id(state): state for state in states}
    if len(distinct) == len(states):
        return list(states), None
    slots = {key: slot for slot, key in enumerate(distinct)}
    return list(distinct.values()), np.array([slots[id(state)] for state in states])


def _gather(stack: np.ndarray, index: np.ndarray | None) -> np.ndarray:
    return stack if index is None else stack[index]


class StackedStateBlock:
    """A fixed set of MPS, padded and stacked once for repeated sweeps.

    The serving hot path scores every query against the *same* ``m``
    landmark states.  At construction the block keeps its states' fused
    leading runs, read from their :class:`QueryForm`, as one
    ``((m + 1) * chi_k x 2**k)`` first-step operand whose last state is a
    spare zero one, and pads the remaining site tensors to its largest
    bonds as step-2 operands.  A call groups its queries by their padded
    bonds and sweeps each group as one stack along the batch axis: one
    product per slice of the fused runs plus two per remaining site against
    the whole block (2 calls on 8 qubits) for every :data:`_STACK_QUERIES`
    queries of the group, however the block's bonds differ.  Each query's
    slice of a stacked product is the BLAS call it would get alone, at the
    same shapes, so its values never depend on the other queries of a
    flush; and a query whose bond exceeds the block's needs no re-padding
    of the block.
    """

    def __init__(self, states: Sequence[MPS]) -> None:
        states = list(states)
        if not states:
            raise SimulationError("a stacked state block needs at least one state")
        self.num_states = len(states)
        self.num_qubits = states[0].num_qubits
        if any(s.num_qubits != self.num_qubits for s in states):
            raise SimulationError("all states in a stacked block must share one qubit count")
        forms = [query_form(s) for s in states]
        chains = [s.tensors for s in states]
        dims = _bond_dims(chains)
        k = _leading_run(self.num_qubits)
        # The spare zero state keeps a one-state block or tail off ``dot``.
        self._run = _ket_runs(forms, self.num_states + 1, dims[k]).reshape(-1, 2**k)
        self._kets = [
            _ket_operands(chains, dims, site) for site in range(k, self.num_qubits)
        ]

    def tail(self, start: int) -> "StackedStateBlock":
        """The block's states ``start:`` as a view, without re-padding.

        Shares the padded operands (a slice along the stack axis stays
        contiguous), so it costs a few slices; overlaps against it are the
        same bytes as against the whole block.
        """
        if not 0 <= start < self.num_states:
            raise SimulationError(
                f"tail start {start} outside a block of {self.num_states} states"
            )
        view = object.__new__(StackedStateBlock)
        view.num_states = self.num_states - start
        view.num_qubits = self.num_qubits
        run_bond = self._run.shape[0] // (self.num_states + 1)
        view._run = self._run[start * run_bond :]
        view._kets = [kets[start:] for kets in self._kets]
        return view

    def overlaps(self, bras: Sequence[MPS]) -> np.ndarray:
        """``<bra_q|ket_j>`` for every query ``q`` and block state ``j``."""
        states, index = _distinct(
            list(bras),
            self.num_qubits,
            "query state qubit count does not match the stacked block",
        )
        forms = [query_form(state) for state in states]
        groups: Dict[Tuple[int, ...], List[int]] = {}
        for q, form in enumerate(forms):
            groups.setdefault(form.bonds, []).append(q)
        if len(groups) == 1 and len(forms) <= _STACK_QUERIES:
            # One stack of one shape group (a serving flush): nothing to scatter.
            return _gather(self._sweep(forms, forms[0].bonds), index)
        out = np.empty((len(forms), self.num_states), dtype=np.complex128)
        for bonds, members in groups.items():
            for start in range(0, len(members), _STACK_QUERIES):
                stack = members[start : start + _STACK_QUERIES]
                out[stack] = self._sweep([forms[q] for q in stack], bonds)
        return _gather(out, index)

    def _sweep(self, forms: Sequence[QueryForm], bonds: Tuple[int, ...]) -> np.ndarray:
        """One stacked sweep of queries that share their padded ``bonds``."""
        m, z = self.num_states, len(forms)
        # The group's forms share their padded shapes, so a stack of their
        # operands is one copy.  The fused first step and every step 1 run
        # as (m*b x .) products against the whole block, one slice per
        # query; the first step's rows of the spare state are dropped.
        runs = np.concatenate([form.run for form in forms]).reshape(z, -1, bonds[0])
        run_bond = self._run.shape[0] // (m + 1)
        env = _matmul(self._run, runs)[:, : m * run_bond]
        for i, kets in enumerate(self._kets):
            bras = np.concatenate([form.sites[i] for form in forms]).reshape(z, bonds[i], -1)
            ket_bond = kets.shape[2] // 2
            tmp = _matmul(env.reshape(z, m * ket_bond, -1), bras)
            env = _matmul(kets, tmp.reshape(z, m, 2 * ket_bond, -1))
        return env.reshape(z, m)


def batched_overlaps(pairs: Sequence[Tuple[MPS, MPS]]) -> np.ndarray:
    """Inner products ``<bra_k|ket_k>`` for a chunk of ``(bra, ket)`` pairs.

    The bra is conjugated; values come back in the order of ``pairs``.
    Each pair is swept as :class:`StackedStateBlock` sweeps it -- fused
    leading run, then two products per remaining site -- as per-pair
    stacks, with both sides' runs and the bra operands read from the
    states' :class:`QueryForm`.
    """
    if not pairs:
        return np.empty(0, dtype=np.complex128)
    num_qubits = pairs[0][0].num_qubits
    message = "all states in a batched overlap chunk must share one qubit count"
    bras, bra_index = _distinct([bra for bra, _ in pairs], num_qubits, message)
    kets, ket_index = _distinct([ket for _, ket in pairs], num_qubits, message)
    bra_forms = [query_form(bra) for bra in bras]
    bonds = [max(sizes) for sizes in zip(*(form.bonds for form in bra_forms))]
    chains = [ket.tensors for ket in kets]
    ket_dims = _bond_dims(chains)
    k = _leading_run(num_qubits)
    runs, sites = _bra_stacks(bra_forms, bonds, k)
    # A whole chain's ket run is one row: a zero second row keeps it off ``dot``.
    ket_runs = _ket_runs([query_form(ket) for ket in kets], len(kets), max(ket_dims[k], 2))
    env = _matmul(_gather(ket_runs, ket_index), _gather(runs, bra_index))
    for site, bra in enumerate(sites, start=k):
        tmp = _matmul(env, _gather(bra, bra_index))
        env = _matmul(
            _gather(_ket_operands(chains, ket_dims, site), ket_index),
            tmp.reshape(len(pairs), 2 * ket_dims[site], -1),
        )
    return env[:, 0, 0].copy()
