"""The fused-first-site partition of the padded overlap sweep.

Each state's leading ``k = min(7, N - 1)`` sites are fused into one site of
``2**k`` physical configurations, so a sweep's first step is one BLAS
product and only the remaining ``N - k`` sites are swept site by site.  The
byte-identity and accuracy relations live in
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
    "num_qubits, fused", [(1, 0), (2, 1), (6, 5), (8, 7), (16, 7)]
)
def test_leading_run_partition(num_qubits, fused):
    """``k = min(7, N - 1)``: one 128-term BLAS slice at most, and at least
    one site left to sweep (a one-qubit chain fuses nothing)."""
    assert batched._leading_run(num_qubits) == fused
    states = [MPS.plus_state(num_qubits), MPS.zero_state(num_qubits)]
    block = StackedStateBlock(states)
    # One (m * chi_k x 2**k) first-step operand, chi_k padded to a tile;
    # the other sites as now.
    chi_k = batched._BOND_QUANTUM if fused else 1
    assert block._run.shape == (len(states) * chi_k, 2**fused)
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


def test_a_block_query_on_the_benchmark_ansatz_is_three_matmuls(monkeypatch):
    """A flush whose queries share their padded bonds is one stacked sweep:
    the fused first step is one product against the whole block and site 7
    two more, for a flush of up to 32 queries (a serving flush), and three
    more per further 32.  A query's own run is fused when its form is
    built, outside these products."""
    X = np.random.default_rng(7).uniform(0.05, 1.95, size=(80, 8))
    states = KernelEngine(BENCHMARK_ANSATZ).encode_rows(X)
    assert len({batched.query_form(s).bonds for s in states}) == 1
    block = StackedStateBlock(states[:8])
    calls = _matmul_calls(monkeypatch)
    for flush in ([states[9]], states[9:12], states[8:40]):
        calls.clear()
        block.overlaps(flush)
        assert [len(shape) for shape in calls] == [2, 3, 3]
    calls.clear()
    block.tail(3).overlaps(states[9:40])
    assert len(calls) == 3
    calls.clear()
    values = block.overlaps(states[8:80])
    assert [len(shape) for shape in calls] == [2, 3, 3] * 3
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


def test_a_pair_chunk_on_the_benchmark_ansatz_is_three_matmuls(monkeypatch):
    X = np.random.default_rng(8).uniform(0.05, 1.95, size=(6, 8))
    states = KernelEngine(BENCHMARK_ANSATZ).encode_rows(X)
    calls = _matmul_calls(monkeypatch)
    batched_overlaps([(states[i], states[i + 1]) for i in range(5)])
    assert len(calls) == 3
