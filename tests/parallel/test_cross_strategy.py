"""The modelled rectangular (cross-Gram) distribution strategy.

:func:`~repro.parallel.compute_cross_distributed` splits a test-versus-train
kernel over :func:`~repro.parallel.rect_tiling` tiles, one simulated process
per tile owner (the paper's no-messaging scheme on a rectangle).  These tests
pin that the tiles cover the rectangle, that the strategy reproduces the
engine's cross matrix, and that its per-process accounting is complete.
"""

import numpy as np
import pytest

from repro.config import AnsatzConfig
from repro.engine import KernelEngine
from repro.parallel import (
    NoMessagingCrossStrategy,
    compute_cross_distributed,
    rect_tiling,
    tiles_cover_matrix,
)


ANSATZ = AnsatzConfig(num_features=4, interaction_distance=1, layers=1, gamma=0.6)


@pytest.fixture(scope="module")
def serial_engine():
    return KernelEngine(ANSATZ)


def _reference_cross(engine, X_rows, X_cols):
    states = engine.encode_rows(X_cols)
    return engine.cross(X_rows, states).matrix, states


def test_rect_tiles_cover_random_shapes():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 12))
        m = int(rng.integers(1, 12))
        rb = int(rng.integers(1, n + 1))
        cb = int(rng.integers(1, m + 1))
        owners = int(rng.integers(1, 5))
        tiles = rect_tiling(n, m, rb, cb, num_owners=owners)
        assert tiles_cover_matrix(tiles, n, symmetric=False, num_cols=m)
        assert all(0 <= t.owner < owners for t in tiles)


def test_modeled_cross_strategy_matches_reference(serial_engine):
    rng = np.random.default_rng(19)
    X_rows = rng.uniform(0.1, 1.9, size=(6, 4))
    X_cols = rng.uniform(0.1, 1.9, size=(3, 4))
    reference, _ = _reference_cross(serial_engine, X_rows, X_cols)
    result = compute_cross_distributed(X_rows, X_cols, ANSATZ, num_processes=3)
    assert result.matrix.shape == (6, 3)
    assert np.allclose(result.matrix, reference, atol=1e-12)
    assert result.total_inner_products == 6 * 3
    # Every active process charged its own simulations (no-messaging).
    assert result.total_simulations >= max(6, 3)


def test_modeled_cross_strategy_accounting_is_complete(serial_engine):
    """Per-process inner products sum to the full rectangle, once each."""
    rng = np.random.default_rng(21)
    X_rows = rng.uniform(0.1, 1.9, size=(7, 4))
    X_cols = rng.uniform(0.1, 1.9, size=(4, 4))
    result = compute_cross_distributed(X_rows, X_cols, ANSATZ, num_processes=4)
    assert sum(p.num_inner_products for p in result.per_process) == 7 * 4
    assert result.strategy == "no-messaging-cross"


def test_cross_strategy_rejects_bad_dimensions():
    from repro.exceptions import ParallelError

    strategy = NoMessagingCrossStrategy(2)
    with pytest.raises(ParallelError):
        strategy.compute(None, 4)  # num_cols missing
    with pytest.raises(ParallelError):
        strategy.compute(None, 0, 3)
