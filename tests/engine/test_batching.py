"""Unit tests for the batched transfer-matrix overlap path."""

import numpy as np
import pytest

from repro.backends import CpuBackend
from repro.circuits import build_feature_map_circuit
from repro.config import AnsatzConfig
from repro.engine import StackedStateBlock, batched_overlaps
from repro.exceptions import SimulationError
from repro.mps import MPS


@pytest.fixture
def encoded_states(rng):
    ansatz = AnsatzConfig(num_features=4, interaction_distance=2, layers=2, gamma=0.8)
    backend = CpuBackend()
    X = rng.uniform(0.1, 1.9, size=(5, 4))
    return [backend.simulate(build_feature_map_circuit(row, ansatz)).state for row in X]


def test_batched_overlaps_match_sequential_reference(encoded_states):
    pairs = [
        (encoded_states[i], encoded_states[j])
        for i in range(len(encoded_states))
        for j in range(i + 1, len(encoded_states))
    ]
    batched = batched_overlaps(pairs)
    reference = np.array([bra.inner_product(ket) for bra, ket in pairs])
    assert batched.shape == (len(pairs),)
    assert np.allclose(batched, reference, atol=1e-13)


def test_empty_input_returns_empty_array():
    values = batched_overlaps([])
    assert values.shape == (0,)
    assert values.dtype == np.complex128


def test_mismatched_qubit_counts_raise():
    with pytest.raises(SimulationError):
        batched_overlaps([(MPS.plus_state(3), MPS.plus_state(4))])


def test_backend_batched_api_matches_single_pair_api(encoded_states):
    backend = CpuBackend()
    pairs = [
        (encoded_states[0], encoded_states[1]),
        (encoded_states[1], encoded_states[2]),
        (encoded_states[0], encoded_states[2]),
    ]
    singles = [backend.inner_product(bra, ket) for bra, ket in pairs]
    assert backend.num_inner_products == len(pairs)

    batch = backend.inner_product_batch(pairs)

    assert np.allclose(batch.values, [r.value for r in singles], atol=1e-13)
    assert batch.num_pairs == len(pairs)
    # The batch counts each pair as a solo call does.
    assert backend.num_inner_products == 2 * len(pairs)


def test_block_call_charges_each_pair_like_a_solo_call_in_order(encoded_states):
    """A block call counts one overlap per (query, state) entry, as the solo
    calls on the same pairs do, and lays the values out in that order."""
    bras, kets = encoded_states[:2], encoded_states[2:]
    # Both backends start from the same non-zero running count.
    loop = CpuBackend()
    loop.inner_product(kets[0], kets[1])
    solo = [[loop.inner_product(bra, ket).value for ket in kets] for bra in bras]

    backend = CpuBackend()
    backend.inner_product(kets[0], kets[1])
    result = backend.inner_product_block(bras, StackedStateBlock(kets))
    assert result.num_pairs == len(bras) * len(kets)
    assert backend.num_inner_products == loop.num_inner_products
    assert result.values.shape == (len(bras), len(kets))
    assert np.allclose(result.values, solo, atol=1e-13)
    # Each entry is byte-identical to the pair-list path on the same pair.
    pairs = [(bra, ket) for bra in bras for ket in kets]
    assert result.values.ravel().tobytes() == backend.inner_product_batch(pairs).values.tobytes()
