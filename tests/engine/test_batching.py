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
    backend.reset_counters()
    singles = [backend.inner_product(bra, ket) for bra, ket in pairs]
    single_summary = backend.timing_summary()

    backend.reset_counters()
    batch = backend.inner_product_batch(pairs)
    batch_summary = backend.timing_summary()

    assert np.allclose(batch.values, [r.value for r in singles], atol=1e-13)
    assert batch.num_pairs == len(pairs)
    # Counters advance identically on both paths (same modelled seconds,
    # same inner-product count); only the measured wall time may differ.
    assert batch_summary["num_inner_products"] == single_summary["num_inner_products"]
    assert batch_summary["modelled_inner_product_time_s"] == pytest.approx(
        single_summary["modelled_inner_product_time_s"]
    )
    assert batch.max_bond_dimension == max(r.bond_dimension for r in singles)


def test_block_call_charges_each_pair_like_a_solo_call_in_order(encoded_states):
    """The cost-model table prices every pair as ``inner_product`` does, and
    both the call's own seconds and the running total fold them in order."""
    bras, kets = encoded_states[:2], encoded_states[2:]
    # Both backends start from the same non-zero running total.
    loop = CpuBackend()
    loop.inner_product(kets[0], kets[1])
    modelled = 0.0
    for bra in bras:
        for ket in kets:
            modelled += loop.inner_product(bra, ket).modelled_time_s

    backend = CpuBackend()
    backend.inner_product(kets[0], kets[1])
    result = backend.inner_product_block(bras, StackedStateBlock(kets))
    assert result.modelled_time_s == modelled
    assert backend.modelled_inner_product_time_s == loop.modelled_inner_product_time_s
    assert backend.num_inner_products == loop.num_inner_products
    assert result.max_bond_dimension == max(s.max_bond_dimension for s in encoded_states)
