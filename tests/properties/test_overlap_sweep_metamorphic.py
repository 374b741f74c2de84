"""Metamorphic relations of the padded overlap sweep (``repro.mps.batched``).

Every overlap is within 1e-12 of ``MPS.inner_product`` and byte-identical
however the sweep is composed: a query alone or in any subset or order,
against a block, any tail of it or as pair chunks of any size.  Blocks mix
per-site bonds (two ansatze, a product state, random bonds off the padding
tile), include a one-state block, and meet queries whose bonds exceed the
block's.  Chains of 1 to 6 qubits are fused whole (up to 8 are), and 12 and
16 qubits fuse a leading run of 7 sites and sweep the rest.

A state's cached query form (:func:`repro.mps.batched.query_form`) never
shows in a value: it is the same whether the form is fresh or cached, and a
state mutated after it was swept is swept from its new tensors.
"""

import numpy as np
import pytest

from repro.backends import CpuBackend
from repro.circuits import build_feature_map_circuit
from repro.config import AnsatzConfig
from repro.engine import KernelEngine
from repro.mps import MPS, StackedStateBlock, batched_overlaps, rx, rxx
from repro.mps.batched import QueryForm, query_form

NARROW = AnsatzConfig(num_features=6, interaction_distance=1, layers=1, gamma=0.5)
WIDE = AnsatzConfig(num_features=6, interaction_distance=3, layers=2, gamma=0.9)


def _encode(ansatz, num_rows, seed):
    X = np.random.default_rng(seed).uniform(0.05, 1.95, size=(num_rows, ansatz.num_features))
    return [CpuBackend().simulate(build_feature_map_circuit(r, ansatz)).state for r in X]


def _random_states(seed, num_qubits, cap, count):
    """Unit-norm states (random left isometries) with bonds varying per site."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(count):
        state_cap = int(rng.integers(cap - cap // 8, cap + 1))
        dims = [1]
        for k in range(1, num_qubits):
            limit = min(2**k, 2 ** (num_qubits - k), state_cap, 2 * dims[-1])
            dims.append(int(rng.integers(max(1, limit - limit // 8), limit + 1)))
        tensors = []
        for left, right in zip(dims, dims[1:] + [1]):
            g = rng.normal(size=(2 * left, right, 2)) @ np.array([1, 1j])
            site = np.linalg.qr(g)[0] if right > 1 else g / np.linalg.norm(g)
            tensors.append(site.reshape(left, 2, right))
        states.append(MPS(tensors))
    return states


QUERIES = (
    _encode(WIDE, 3, 11)
    + _encode(NARROW, 2, 12)
    + [MPS.plus_state(6)]
    + _random_states(13, 6, cap=6, count=3)
)
BLOCKS = {
    "mixed": _encode(NARROW, 3, 21)
    + [MPS.plus_state(6)]
    + _encode(WIDE, 2, 23)
    + _random_states(24, 6, cap=7, count=3),
    "narrow": _encode(NARROW, 3, 21),
    "one-state": _encode(WIDE, 1, 22),
}


def _assert_contract(block_states, queries, seed):
    oracle = np.array([[q.inner_product(s) for s in block_states] for q in queries])
    block = StackedStateBlock(block_states)
    full = block.overlaps(queries)
    assert np.max(np.abs(full - oracle)) < 1e-12
    # A query alone, or in any subset and order, against the block.
    for q, query in enumerate(queries):
        assert block.overlaps([query]).tobytes() == full[q : q + 1].tobytes()
    rng = np.random.default_rng(seed)
    for _ in range(3):
        subset = rng.permutation(len(queries))[: rng.integers(1, len(queries) + 1)]
        swept = block.overlaps([queries[q] for q in subset])
        assert swept.tobytes() == full[subset].tobytes()
    # Every tail of the block, down to its last state.
    for start in range(1, len(block_states)):
        tail = block.tail(start).overlaps(queries)
        assert tail.tobytes() == np.ascontiguousarray(full[:, start:]).tobytes()
    # A state alone in a block of one.
    for j, state in enumerate(block_states):
        alone = StackedStateBlock([state]).overlaps(queries)
        assert alone.tobytes() == np.ascontiguousarray(full[:, j : j + 1]).tobytes()
    # Shuffled pair chunks of 1, 7 and 64 pairs, checked against the oracle too.
    pairs = [(q, s) for q in queries for s in block_states]
    for chunk in (1, 7, 64):
        order = rng.permutation(len(pairs))
        shuffled = [pairs[k] for k in order]
        values = np.concatenate(
            [batched_overlaps(shuffled[i : i + chunk]) for i in range(0, len(pairs), chunk)]
        )
        assert values.tobytes() == full.ravel()[order].tobytes()
        assert np.max(np.abs(values - oracle.ravel()[order])) < 1e-12


def test_fixtures_cover_mixed_bonds_and_an_oversized_query():
    assert len({tuple(t.shape for t in q.tensors) for q in QUERIES}) > 3
    narrow_max = max(s.max_bond_dimension for s in BLOCKS["narrow"])
    assert any(q.max_bond_dimension > narrow_max for q in QUERIES)


@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_sweep_contract(name):
    _assert_contract(BLOCKS[name], QUERIES, seed=len(name))


def test_sweep_contract_at_bond_100():
    """Bonds near 100 on 16 qubits, the size of a d=4 feature-map encoding.

    Simulating such encodings takes seconds per state, so random states with
    that bond profile stand in; the sweep only sees the tensors.  The step-2
    contraction (twice the bond) then spans two BLAS slices.
    """
    landmarks = _random_states(41, 16, cap=100, count=4)
    queries = _random_states(42, 16, cap=104, count=3)
    assert max(s.max_bond_dimension for s in landmarks + queries) > 90
    _assert_contract(landmarks, queries, seed=43)


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
def test_sweep_contract_on_short_chains(num_qubits):
    """Short chains are fused whole: a one-qubit run is the site itself."""
    block_states = _random_states(50 + num_qubits, num_qubits, cap=4, count=3)
    block_states.append(MPS.plus_state(num_qubits))
    queries = _random_states(60 + num_qubits, num_qubits, cap=4, count=2)
    queries.append(MPS.zero_state(num_qubits))
    if num_qubits > 1:
        ansatz = AnsatzConfig(
            num_features=num_qubits, interaction_distance=1, layers=2, gamma=0.9
        )
        block_states += _encode(ansatz, 2, 70 + num_qubits)
        queries += _encode(ansatz, 2, 80 + num_qubits)
    _assert_contract(block_states, queries, seed=num_qubits)


#: 12 qubits at ``d = 2``: the rows' padded bonds from the fused run on fall
#: into several shape groups, so one flush takes several stacked sweeps.
GROUPED = AnsatzConfig(num_features=12, interaction_distance=2, layers=2, gamma=0.3)


def _grouped_states(count, seed):
    X = np.random.default_rng(seed).uniform(0.05, 1.95, size=(count, GROUPED.num_features))
    return KernelEngine(GROUPED).encode_rows(X)


def test_form_cache_flush_and_tail_leave_values_unchanged():
    states = _grouped_states(18, 31)
    block_states, queries = states[:6], states[6:]
    groups = [QueryForm(q).bonds for q in queries]
    assert len(set(groups)) > 1
    assert len({QueryForm(s).run.shape for s in states}) > 1
    assert all(q._query_form is None for q in queries)
    block = StackedStateBlock(block_states)
    # A fresh form (built by this call), then the cached one, then a copy's.
    fresh = [block.overlaps([q]) for q in queries]
    assert all(q._query_form is not None for q in queries)
    assert all(q.copy()._query_form is None for q in queries)
    for q, query in enumerate(queries):
        assert block.overlaps([query]).tobytes() == fresh[q].tobytes()
        assert block.overlaps([query.copy()]).tobytes() == fresh[q].tobytes()
    alone = np.concatenate(fresh)
    oracle = np.array([[q.inner_product(s) for s in block_states] for q in queries])
    assert np.max(np.abs(alone - oracle)) < 1e-12
    # Any flush, mixing shape groups in any order and with repeats.
    rng = np.random.default_rng(32)
    everyone = np.arange(len(queries))
    flushes = [everyone, everyone[::-1], rng.permutation(everyone)[:5]]
    flushes += [rng.integers(0, len(queries), size=size) for size in (3, 30)]
    for flush in flushes:
        swept = block.overlaps([queries[q] for q in flush])
        assert swept.tobytes() == alone[flush].tobytes()
    # Against a tail of the block, and as pair chunks.
    for start in (1, 4, 5):
        tail = block.tail(start).overlaps(queries)
        assert tail.tobytes() == np.ascontiguousarray(alone[:, start:]).tobytes()
    pairs = [(q, s) for q in queries for s in block_states]
    values = batched_overlaps(pairs)
    assert values.tobytes() == alone.ravel().tobytes()


def _scaled(state, factor):
    """``state`` times ``factor``: not unit-norm, so ``normalize`` shows."""
    tensors = state.tensors
    tensors[0] = tensors[0] * factor
    return MPS(tensors)


MUTATIONS = {
    "single-qubit gate": lambda s: s.apply_single_qubit_gate(3, rx(0.7)),
    "two-qubit gate": lambda s: s.apply_two_qubit_gate(5, rxx(0.4)),
    "canonicalize": lambda s: s.canonicalize(9),
    "normalize": lambda s: s.normalize(),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_a_state_mutated_after_a_sweep_is_swept_anew(name):
    states = _grouped_states(6, 41)
    others = states[1:]
    block = StackedStateBlock(others)
    for mutate_copy in (False, True):
        state = _scaled(states[0], 1.5)
        before = block.overlaps([state])
        StackedStateBlock([state]).overlaps(others)
        assert state._query_form is not None
        target = state.copy() if mutate_copy else state
        MUTATIONS[name](target)
        assert target._query_form is None
        if mutate_copy:
            assert block.overlaps([state]).tobytes() == before.tobytes()
        oracle = np.array([target.inner_product(o) for o in others])
        assert np.max(np.abs(block.overlaps([target])[0] - oracle)) < 1e-12
        as_ket = StackedStateBlock([target]).overlaps(others)[:, 0]
        assert np.max(np.abs(as_ket - oracle.conj())) < 1e-12
        pairs = batched_overlaps([(target, o) for o in others])
        assert np.max(np.abs(pairs - oracle)) < 1e-12
        # The rebuilt form is the form a never-swept state gets.
        rebuilt, fresh = query_form(target), QueryForm(target)
        assert rebuilt.run.tobytes() == fresh.run.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(rebuilt.sites, fresh.sites))
