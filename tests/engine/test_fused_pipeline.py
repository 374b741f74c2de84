"""Tests for the fused encode-to-overlap pipeline and the cross block sweep.

The fused pipeline is a *scheduling* change: a cold serving flush runs the
stacked encode of its store misses straight into the landmark block sweep,
writing the state store only after the kernel block exists.  Every test here
pins the contract that makes that safe -- byte-identical kernel values, the
same cache hit/miss deltas and the same store occupancy as the unfused path
-- plus the one thing that *should* differ: no store write sits on the
critical path between encode and overlap.
"""

import numpy as np
import pytest

from repro.backends import (
    CPU_COST_MODEL,
    CpuBackend,
    DeviceCostModel,
    SimulatedGpuBackend,
)
from repro.config import AnsatzConfig, SimulationConfig
from repro.engine import (
    EngineConfig,
    FusedEncodeOverlapPlan,
    KernelEngine,
    KernelRowPlan,
    StackedStateBlock,
    StateStore,
    batched_overlaps,
)

ANSATZ = AnsatzConfig(num_features=5, interaction_distance=2, layers=1, gamma=0.8)


class ProbeStore(StateStore):
    """State store recording every get/put into a shared event list."""

    def __init__(self, events):
        super().__init__()
        self.events = events

    def get(self, key):
        state = super().get(key)
        self.events.append(("get", state is not None))
        return state

    def put(self, key, state):
        self.events.append(("put",))
        super().put(key, state)


def _engine(fused, store=None, use_cache=True, cross_backend=None, **cfg):
    config = EngineConfig(use_cache=use_cache, fused_pipeline=fused, **cfg)
    return KernelEngine(
        ANSATZ,
        backend=CpuBackend(SimulationConfig()),
        config=config,
        store=store,
        cross_backend=cross_backend,
    )


@pytest.fixture(scope="module")
def train_parts():
    rng = np.random.default_rng(5)
    X_train = rng.uniform(0.05, 1.95, size=(7, 5))
    engine = _engine(fused=False, use_cache=False)
    states = engine.encode_rows(X_train)
    return states, StackedStateBlock(states)


def _spy_block_sweep(engine, events):
    """Record a ``("block",)`` event whenever the overlap sweep runs."""
    original = engine.backend.inner_product_block

    def spy(bras, block):
        events.append(("block",))
        return original(bras, block)

    engine.backend.inner_product_block = spy


# ----------------------------------------------------------------------
# Value + accounting equivalence across cache states
# ----------------------------------------------------------------------
@pytest.mark.parametrize("batch_rows", [1, 2, 5, 9])
def test_fused_rows_byte_identical_cold(train_parts, batch_rows):
    states, block = train_parts
    rng = np.random.default_rng(batch_rows)
    X = rng.uniform(0.05, 1.95, size=(batch_rows, 5))
    r_unfused = _engine(fused=False).kernel_rows(X, states, block=block)
    r_fused = _engine(fused=True).kernel_rows(X, states, block=block)
    assert r_fused.matrix.tobytes() == r_unfused.matrix.tobytes()
    assert r_fused.matrix.shape == (batch_rows, len(states))
    assert (r_fused.cache_hits, r_fused.cache_misses) == (
        r_unfused.cache_hits,
        r_unfused.cache_misses,
    )
    assert r_fused.num_simulations == r_unfused.num_simulations


@pytest.mark.parametrize("warm_rows", [0, 2, 6])
def test_fused_rows_byte_identical_with_warm_store(train_parts, warm_rows):
    states, block = train_parts
    rng = np.random.default_rng(17)
    X = rng.uniform(0.05, 1.95, size=(6, 5))
    results = []
    for fused in (False, True):
        engine = _engine(fused=fused)
        if warm_rows:
            engine.encode_rows(X[:warm_rows])
        results.append(engine.kernel_rows(X, states, block=block))
    unfused, fused_r = results
    assert fused_r.matrix.tobytes() == unfused.matrix.tobytes()
    assert (fused_r.cache_hits, fused_r.cache_misses) == (
        unfused.cache_hits,
        unfused.cache_misses,
    )
    assert fused_r.cache_hits >= warm_rows


def test_fused_rows_with_intra_batch_duplicates(train_parts):
    states, block = train_parts
    rng = np.random.default_rng(29)
    X = rng.uniform(0.05, 1.95, size=(6, 5))
    X[3] = X[0]
    X[5] = X[0]
    r_unfused = _engine(fused=False).kernel_rows(X, states, block=block)
    r_fused = _engine(fused=True).kernel_rows(X, states, block=block)
    assert r_fused.matrix.tobytes() == r_unfused.matrix.tobytes()
    assert np.array_equal(r_fused.matrix[3], r_fused.matrix[0])
    assert np.array_equal(r_fused.matrix[5], r_fused.matrix[0])
    # Duplicates resolve to store hits in both schedules.
    assert (r_fused.cache_hits, r_fused.cache_misses) == (
        r_unfused.cache_hits,
        r_unfused.cache_misses,
    )
    # Only the 4 distinct rows were simulated.
    assert r_fused.num_simulations == 4


def test_fused_rows_without_a_store(train_parts):
    states, block = train_parts
    rng = np.random.default_rng(31)
    X = rng.uniform(0.05, 1.95, size=(4, 5))
    r_unfused = _engine(fused=False, use_cache=False).kernel_rows(
        X, states, block=block
    )
    r_fused = _engine(fused=True, use_cache=False).kernel_rows(X, states, block=block)
    assert r_fused.matrix.tobytes() == r_unfused.matrix.tobytes()
    assert r_fused.cache_hits == r_fused.cache_misses == 0


def test_fused_leaves_identical_store_occupancy(train_parts):
    states, block = train_parts
    rng = np.random.default_rng(37)
    X = rng.uniform(0.05, 1.95, size=(5, 5))
    stores = []
    for fused in (False, True):
        store = StateStore()
        _engine(fused=fused, store=store).kernel_rows(X, states, block=block)
        stores.append(store)
    unfused_store, fused_store = stores
    assert unfused_store.stats().num_entries == fused_store.stats().num_entries
    assert unfused_store.stats().bytes_in_use == fused_store.stats().bytes_in_use


def test_fused_per_point_encoding_fallback(train_parts):
    """With batch_encoding off the fused path encodes misses point by point
    -- still fused with the sweep, still byte-identical."""
    states, block = train_parts
    rng = np.random.default_rng(41)
    X = rng.uniform(0.05, 1.95, size=(4, 5))
    r_unfused = _engine(fused=False, batch_encoding=False).kernel_rows(
        X, states, block=block
    )
    r_fused = _engine(fused=True, batch_encoding=False).kernel_rows(
        X, states, block=block
    )
    assert r_fused.matrix.tobytes() == r_unfused.matrix.tobytes()


# ----------------------------------------------------------------------
# The scheduling difference itself
# ----------------------------------------------------------------------
def test_unfused_store_writes_sit_before_the_sweep(train_parts):
    states, block = train_parts
    X = np.random.default_rng(43).uniform(0.05, 1.95, size=(5, 5))
    events = []
    engine = _engine(fused=False, store=ProbeStore(events))
    _spy_block_sweep(engine, events)
    engine.kernel_rows(X, states, block=block)
    sweep_at = events.index(("block",))
    assert sum(1 for e in events[:sweep_at] if e == ("put",)) == 5


def test_fused_store_writes_are_off_the_critical_path(train_parts):
    states, block = train_parts
    X = np.random.default_rng(43).uniform(0.05, 1.95, size=(5, 5))
    X[4] = X[1]  # one intra-batch duplicate rides along
    events = []
    engine = _engine(fused=True, store=ProbeStore(events))
    _spy_block_sweep(engine, events)
    result = engine.kernel_rows(X, states, block=block)
    sweep_at = events.index(("block",))
    before, after = events[:sweep_at], events[sweep_at + 1 :]
    # Critical path: only the initial store lookups -- zero writes.
    assert all(e[0] == "get" for e in before)
    assert sum(1 for e in before if e == ("put",)) == 0
    # The same writes (one per distinct miss) and the duplicate's hit happen
    # after the kernel block exists.
    assert sum(1 for e in after if e == ("put",)) == 4
    assert ("get", True) in after
    assert (result.cache_hits, result.cache_misses) == (1, 4)


def test_fused_plan_jobs_match_the_row_plan():
    fused = FusedEncodeOverlapPlan(6, num_rows=3)
    plain = KernelRowPlan(6, num_rows=3)
    assert fused.shape == plain.shape
    assert fused.job_list() == plain.job_list()
    assert fused.num_pairs == plain.num_pairs


# ----------------------------------------------------------------------
# Cross block sweep + modelled dispatch
# ----------------------------------------------------------------------
def test_cross_block_sweep_byte_identical_to_pair_path(train_parts):
    states, block = train_parts
    X = np.random.default_rng(47).uniform(0.05, 1.95, size=(6, 5))
    rows = _engine(fused=False, use_cache=False).encode_rows(X)
    sweep = block.overlaps(rows)
    pairs = batched_overlaps([(row, state) for row in rows for state in states])
    assert sweep.tobytes() == pairs.tobytes()


def test_tiled_executor_keeps_its_job_stream(train_parts):
    """The tiled executor's cross agrees with the sequential one bit for bit."""
    states, _ = train_parts
    X = np.random.default_rng(53).uniform(0.05, 1.95, size=(4, 5))
    sequential = _engine(fused=False).cross(X, states)
    tiled = _engine(fused=False, executor="tiled", num_blocks=2).cross(X, states)
    assert tiled.matrix.tobytes() == sequential.matrix.tobytes()


def test_dispatch_stays_on_cpu_at_small_chi(train_parts):
    """With the real device models, a small-chi block never clears the GPU's
    launch overhead: the sweep stays on the primary backend."""
    states, _ = train_parts
    gpu = SimulatedGpuBackend(SimulationConfig())
    engine = _engine(fused=False, cross_backend=gpu)
    X = np.random.default_rng(59).uniform(0.05, 1.95, size=(4, 5))
    reference = _engine(fused=False).cross(X, states)
    routed = engine.cross(X, states)
    assert routed.matrix.tobytes() == reference.matrix.tobytes()
    assert gpu.num_inner_products == 0


def test_dispatch_moves_to_the_cheaper_modelled_device(train_parts):
    """A cross backend whose model predicts a cheaper stacked sweep receives
    the block -- and, both backends running identical numerics, the kernel
    does not move a bit."""
    states, _ = train_parts
    fast_model = DeviceCostModel(
        "always-cheaper",
        gate_overhead_s=CPU_COST_MODEL.gate_overhead_s / 1e6,
        svd_overhead_s=CPU_COST_MODEL.svd_overhead_s / 1e6,
        contraction_gflops=CPU_COST_MODEL.contraction_gflops * 1e6,
        svd_gflops=CPU_COST_MODEL.svd_gflops * 1e6,
    )
    fast = CpuBackend(SimulationConfig(), cost_model=fast_model)
    engine = _engine(fused=False, cross_backend=fast)
    X = np.random.default_rng(61).uniform(0.05, 1.95, size=(4, 5))
    reference = _engine(fused=False).cross(X, states)
    routed = engine.cross(X, states)
    assert routed.matrix.tobytes() == reference.matrix.tobytes()
    assert fast.num_inner_products == 4 * len(states)
    # The dispatched backend's accounting is merged into the result.
    assert routed.num_inner_products == reference.num_inner_products


def test_result_carries_the_stacked_launch_model(train_parts):
    states, block = train_parts
    X = np.random.default_rng(67).uniform(0.05, 1.95, size=(5, 5))
    result = _engine(fused=True).kernel_rows(X, states, block=block)
    assert result.modelled_batched_simulation_time_s > 0.0
    assert result.modelled_batched_inner_product_time_s > 0.0
    # Stacking can only amortise launches, never add work.
    assert result.modelled_batched_total_time_s <= result.modelled_total_time_s
    assert result.modelled_batched_total_time_s == pytest.approx(
        result.modelled_batched_simulation_time_s
        + result.modelled_batched_inner_product_time_s
    )
