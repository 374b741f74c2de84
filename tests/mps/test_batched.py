"""The fused-first-site partition of the padded overlap sweep.

A chain of up to 8 sites is fused whole into its ``2**N`` amplitudes, so an
overlap is one GEMV per 128-term slice; a longer chain fuses its leading 7
sites into one site of ``2**7`` physical configurations, so a sweep's first
step is one BLAS product and only the remaining ``N - 7`` sites are swept
site by site.  The byte-identity and accuracy relations live in
``tests/properties/test_overlap_sweep_metamorphic.py``.
"""

import types

import numpy as np
import pytest

from repro.config import AnsatzConfig
from repro.engine import KernelEngine
from repro.mps import MPS, StackedStateBlock, batched_overlaps
from repro.mps import batched

#: The perfbench ansatz: 8 qubits, bonds up to 16.
BENCHMARK_ANSATZ = AnsatzConfig(num_features=8, interaction_distance=2, layers=2, gamma=0.5)


@pytest.mark.parametrize(
    "num_qubits, fused", [(1, 1), (2, 2), (6, 6), (8, 8), (16, 7)]
)
def test_leading_run_partition(num_qubits, fused):
    """A chain of up to 8 sites (two 128-term BLAS slices) is fused whole;
    a longer one fuses 7 sites, one slice, and sweeps the rest."""
    assert batched._leading_run(num_qubits) == fused
    states = [MPS.plus_state(num_qubits), MPS.zero_state(num_qubits)]
    block = StackedStateBlock(states)
    # One ((m + 1) * chi_k x 2**k) first-step operand, the last state a
    # spare zero one, chi_k padded to a tile inside the chain; the other
    # sites as before.
    chi_k = 1 if fused == num_qubits else batched._BOND_QUANTUM
    assert block._run.shape == ((len(states) + 1) * chi_k, 2**fused)
    assert not block._run[len(states) * chi_k :].any()
    assert len(block._kets) == num_qubits - fused
    cross = 2 ** (-num_qubits / 2)
    assert np.allclose(block.overlaps(states), [[1.0, cross], [cross, 1.0]])


def test_fused_run_is_the_leading_amplitude_block():
    """Row ``p`` of the fused run is sites ``0..k-1`` at configuration ``p``."""
    state = KernelEngine(BENCHMARK_ANSATZ).encode_rows(
        np.random.default_rng(5).uniform(0.05, 1.95, (1, 8))
    )[0]
    tensors = state.tensors
    run = batched._fused_run(tensors, 7)
    assert run.shape == (128, tensors[7].shape[0])
    amplitudes = (run @ tensors[7].reshape(run.shape[1], -1)).ravel()
    assert np.max(np.abs(amplitudes - state.to_statevector())) < 1e-13
    # The whole chain is the amplitude vector, conjugated in the query form.
    whole = batched._fused_run(tensors, 8)
    assert whole.shape == (256, 1)
    assert np.max(np.abs(whole.ravel() - state.to_statevector())) < 1e-13
    assert batched.QueryForm(state).run.tobytes() == np.conjugate(whole).tobytes()


def _matmul_calls(monkeypatch):
    """Count ``np.matmul`` calls made through ``repro.mps.batched.np``."""
    calls = []
    proxy = types.ModuleType("numpy")
    proxy.__dict__.update(vars(np))

    def matmul(*args, **kwargs):
        calls.append(args[0].shape)
        return np.matmul(*args, **kwargs)

    proxy.matmul = matmul
    monkeypatch.setattr(batched, "np", proxy)
    return calls


def test_a_block_query_on_the_benchmark_ansatz_is_one_matmul_per_slice(monkeypatch):
    """A flush whose queries share their padded bonds is one stacked sweep:
    on 8 qubits the whole chain is fused, so a flush of up to 32 queries (a
    serving flush) is one GEMV stack per 128-term slice of the 256
    amplitudes against the whole block, and two more per further 32.  A
    query's own run is fused when its form is built, outside these
    products."""
    X = np.random.default_rng(7).uniform(0.05, 1.95, size=(80, 8))
    states = KernelEngine(BENCHMARK_ANSATZ).encode_rows(X)
    assert len({batched.query_form(s).bonds for s in states}) == 1
    block = StackedStateBlock(states[:8])
    calls = _matmul_calls(monkeypatch)
    for flush in ([states[9]], states[9:12], states[8:40]):
        calls.clear()
        block.overlaps(flush)
        assert calls == [(9, 128), (9, 128)]
    calls.clear()
    block.tail(3).overlaps(states[9:40])
    assert calls == [(6, 128), (6, 128)]
    calls.clear()
    values = block.overlaps(states[8:80])
    assert calls == [(9, 128)] * 6
    alone = np.concatenate([block.overlaps([s]) for s in states[8:80]])
    assert values.tobytes() == alone.tobytes()


def test_each_state_is_fused_once_per_fit(monkeypatch):
    """A 128-row Gram fuses each state once: the block's ket runs and every
    row's bra run come from one cached form, and repeated queries against
    the block reuse it too."""
    fused = []
    fuse = batched._fused_run

    def counting(tensors, k):
        fused.append(k)
        return fuse(tensors, k)

    monkeypatch.setattr(batched, "_fused_run", counting)
    X = np.random.default_rng(9).uniform(0.05, 1.95, size=(128, 8))
    result = KernelEngine(BENCHMARK_ANSATZ).gram(X)
    assert len(fused) == 128
    for _ in range(2):
        result.block.overlaps(result.states[:32])
        batched_overlaps([(result.states[0], s) for s in result.states[1:9]])
    assert len(fused) == 128


def test_a_pair_chunk_on_the_benchmark_ansatz_is_one_matmul_per_slice(monkeypatch):
    """Every pair's ket run carries a zero second row, so each per-pair
    product is a two-row GEMV."""
    X = np.random.default_rng(8).uniform(0.05, 1.95, size=(6, 8))
    states = KernelEngine(BENCHMARK_ANSATZ).encode_rows(X)
    calls = _matmul_calls(monkeypatch)
    batched_overlaps([(states[i], states[i + 1]) for i in range(5)])
    assert calls == [(5, 2, 128), (5, 2, 128)]
    calls.clear()
    batched_overlaps([(states[0], states[1])])
    assert calls == [(1, 2, 128), (1, 2, 128)]


def test_one_state_products_on_the_benchmark_ansatz_keep_the_block_bytes():
    """NumPy sends a one-row ``(1 x K) @ (K x 1)`` product to ``dot``, whose
    bytes differ from GEMV's.  The last state's column, swept against the
    whole block, as the block's last tail, as a block of one state and as
    single pairs, is the same bytes, for a stack of queries and for a
    query alone."""
    X = np.random.default_rng(10).uniform(0.05, 1.95, size=(20, 8))
    states = KernelEngine(BENCHMARK_ANSATZ).encode_rows(X)
    block_states, queries = states[:12], states[12:]
    block = StackedStateBlock(block_states)
    column = np.ascontiguousarray(block.overlaps(queries)[:, -1:])
    last = block_states[-1]
    assert block.tail(len(block_states) - 1).overlaps(queries).tobytes() == column.tobytes()
    assert StackedStateBlock([last]).overlaps(queries).tobytes() == column.tobytes()
    pairs = np.concatenate([batched_overlaps([(q, last)]) for q in queries])
    assert pairs.tobytes() == column.ravel().tobytes()
    for q, query in enumerate(queries):
        alone = StackedStateBlock([last]).overlaps([query])
        assert alone.tobytes() == column[q : q + 1].tobytes()
