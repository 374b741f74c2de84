"""Backend protocol and result records.

A backend turns circuits into MPS states and computes inner products between
MPS, reporting the *measured* wall-clock time (actual Python/NumPy
execution).  The solo primitives the paper times -- :meth:`Backend.simulate`
and :meth:`Backend.inner_product` -- also report the *modelled* device time
from the backend's :class:`~repro.backends.cost_model.DeviceCostModel`; the
batched paths only count and time.  The correctness of the output never
depends on the backend: both backends run the same algorithm on the same
arrays.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

from ..config import SimulationConfig
from ..exceptions import BackendError
from ..mps import MPS, InstrumentedMPS, TruncationPolicy
from ..mps.batched import StackedStateBlock, batched_overlaps
from ..mps.encoding import FeatureMapBatch, encode_circuits
from .cost_model import DeviceCostModel

__all__ = [
    "Backend",
    "BackendResult",
    "InnerProductResult",
    "BatchInnerProductResult",
    "BatchSimulationResult",
]


@dataclass(frozen=True)
class BackendResult:
    """Outcome of simulating one circuit on a backend.

    Attributes
    ----------
    state:
        The resulting MPS.
    wall_time_s:
        Actual elapsed Python time.
    modelled_time_s:
        Device time predicted by the backend's cost model -- the quantity
        compared across devices in Figure 5.
    max_bond_dimension:
        Largest virtual bond dimension of the final state.
    memory_bytes:
        Memory footprint of the final state.
    num_gates / num_two_qubit_gates:
        Gate counts of the simulated circuit.
    """

    state: MPS
    wall_time_s: float
    modelled_time_s: float
    max_bond_dimension: int
    memory_bytes: int
    num_gates: int
    num_two_qubit_gates: int

    @property
    def memory_mib(self) -> float:
        """Memory footprint in MiB (Table I's unit)."""
        return self.memory_bytes / (1024.0 * 1024.0)


@dataclass(frozen=True)
class InnerProductResult:
    """Outcome of one MPS-MPS inner product on a backend."""

    value: complex
    wall_time_s: float
    modelled_time_s: float
    bond_dimension: int


@dataclass(frozen=True)
class BatchInnerProductResult:
    """Outcome of one *batched* overlap evaluation on a backend.

    Attributes
    ----------
    values:
        Complex overlaps ``<bra_k|ket_k>`` in input order.
    wall_time_s:
        Measured Python time for the whole chunk.
    """

    values: "np.ndarray"
    wall_time_s: float

    @property
    def num_pairs(self) -> int:
        """Number of pairs evaluated: one per entry of :attr:`values`."""
        return self.values.size


@dataclass(frozen=True)
class BatchSimulationResult:
    """Outcome of one *batched* feature-map encode on a backend.

    Attributes
    ----------
    states:
        The encoded MPS, in row order.  Each depends on its own row only,
        byte for byte (alone or in any batch), and is within rounding of
        what :meth:`Backend.simulate` produces for its circuit
        (``1 - |<a|b>|^2 <= 1e-12`` at the default cutoff).
    wall_time_s:
        Measured Python time for the whole stacked encode.
    num_circuits:
        Batch size: the number of rows encoded.
    """

    states: Tuple[MPS, ...]
    wall_time_s: float
    num_circuits: int


class Backend(abc.ABC):
    """Abstract MPS simulation backend.

    Concrete backends provide a name and a cost model; the simulation logic
    is shared here so that CPU and GPU backends are numerically identical by
    construction (the property the paper verifies through matching bond
    dimensions in Table I).
    """

    def __init__(
        self,
        config: SimulationConfig | None = None,
        cost_model: DeviceCostModel | None = None,
    ) -> None:
        self.config = config if config is not None else SimulationConfig()
        if cost_model is None:
            raise BackendError("a backend requires a DeviceCostModel")
        self.cost_model = cost_model
        #: Counters since construction; they never reset, so a caller takes
        #: per-call figures as the difference of two :meth:`lifetime_summary`
        #: snapshots.  Measured wall-clock seconds:
        self.wall_simulation_time_s = 0.0
        self.wall_inner_product_time_s = 0.0
        self.num_simulations = 0
        self.num_inner_products = 0
        #: Stacked-encode accounting: how many batched encodes ran.  A pure
        #: function of the calls (not wall clock), so the telemetry layer
        #: exports it as a deterministic counter
        #: (``repro_encode_batches_total``).
        self.num_encode_batches = 0

    #: Every counter attribute, in :meth:`lifetime_summary` order.
    _COUNTER_ATTRS = (
        "num_simulations",
        "num_inner_products",
        "num_encode_batches",
        "wall_simulation_time_s",
        "wall_inner_product_time_s",
    )

    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short identifier, e.g. ``"cpu"`` or ``"gpu"``."""

    def _policy(self) -> TruncationPolicy:
        return TruncationPolicy(
            cutoff=self.config.truncation_cutoff,
            max_bond_dim=self.config.max_bond_dim,
            allow_lossy_cap=self.config.allow_lossy_cap,
        )

    # ------------------------------------------------------------------
    def simulate(self, circuit, initial_state: MPS | None = None) -> BackendResult:
        """Simulate a routed circuit and return the resulting MPS + timings.

        ``initial_state`` defaults to ``|0...0>``; the feature-map circuits
        include their own Hadamard preparation layer.
        """
        return self._simulate_steps(
            circuit.num_qubits,
            ((op.qubits, op.matrix()) for op in circuit.operations),
            initial_state,
        )

    def _simulate_steps(
        self,
        num_qubits: int,
        steps: Iterable[Tuple[Tuple[int, ...], np.ndarray]],
        initial_state: MPS | None = None,
    ) -> BackendResult:
        """Per-point simulation of ``(targets, matrix)`` steps.

        The gate-by-gate reference of the layer encode: the engine runs one
        row's :class:`~repro.circuits.GateStacks` steps through it
        (:meth:`repro.engine.KernelEngine.simulate_row`).
        """
        policy = self._policy()
        if initial_state is not None:
            state: MPS = initial_state.copy()
        elif self.config.track_memory:
            state = InstrumentedMPS.zero_state(num_qubits, policy)
        else:
            state = MPS.zero_state(num_qubits, policy)

        modelled = 0.0
        num_gates = num_two_qubit_gates = 0
        start = time.perf_counter()
        for qubits, matrix in steps:
            num_gates += 1
            if len(qubits) == 1:
                q = qubits[0]
                chi_l = state.tensors[q].shape[0]
                chi_r = state.tensors[q].shape[2]
                modelled += self.cost_model.single_qubit_gate_time(chi_l, chi_r)
                state.apply_single_qubit_gate(q, matrix)
            else:
                q0, q1 = qubits
                if q1 != q0 + 1:
                    raise BackendError(
                        "backend received an unrouted circuit: two-qubit gate "
                        f"on non-adjacent qubits {qubits}"
                    )
                num_two_qubit_gates += 1
                chi_l = state.tensors[q0].shape[0]
                chi_m = state.tensors[q0].shape[2]
                chi_r = state.tensors[q1].shape[2]
                modelled += self.cost_model.two_qubit_gate_time(chi_l, chi_m, chi_r)
                state.apply_two_qubit_gate(q0, matrix)
        wall = time.perf_counter() - start

        self.wall_simulation_time_s += wall
        self.num_simulations += 1

        return BackendResult(
            state=state,
            wall_time_s=wall,
            modelled_time_s=modelled,
            max_bond_dimension=state.max_bond_dimension,
            memory_bytes=state.memory_bytes,
            num_gates=num_gates,
            num_two_qubit_gates=num_two_qubit_gates,
        )

    def simulate_batch(self, batch: FeatureMapBatch) -> BatchSimulationResult:
        """Encode a batch of feature-map rows, one diagonal MPO per layer.

        ``batch`` is the rows' angle table with the ansatz structure (the
        engine builds one per chunk with
        :func:`repro.circuits.feature_map_batch`).  The rows are encoded in
        stacked passes (:func:`repro.mps.encoding.encode_circuits`): per
        layer an ``RX`` and a diagonal MPO on each site; a compressed layer
        then folds both chain ends through permutations, QRs only where a
        bond can narrow and runs a truncating SVD sweep, each row truncated
        on its own singular values and padded to widths its own ranks fix.
        A batch of at least ``2 * MIN_PIECE_ROWS`` (128) rows with bonds of
        16 or more runs as one pass per contiguous row piece, a thread per
        core the process may use, all joined before this returns.
        Every resulting state depends on its own row alone, **byte for
        byte**, so callers may batch, split or reorder encodes freely
        without moving a single bit of any downstream kernel entry; under
        the default cut-off it is within ``1e-12`` infidelity of the row's
        gate-by-gate simulation.

        ``num_simulations`` advances by one per row, as if :meth:`simulate`
        had run once per circuit, and ``num_encode_batches`` by one per call
        however the rows were pieced; the measured wall time (of the whole
        call) is where batching pays off.  No modelled device time is priced
        here: the figures that report it time :meth:`simulate` one circuit at a time (per row,
        :meth:`repro.engine.KernelEngine.simulate_row`).

        Raises
        ------
        BackendError
            If the configuration requests per-gate memory traces
            (``config.track_memory``): the layer encode applies no gates to
            trace, so traced encodes go through :meth:`simulate`.
        """
        if self.config.track_memory:
            raise BackendError(
                "simulate_batch applies no gates to trace; per-gate memory "
                "traces come from simulate()"
            )
        if not len(batch):
            return BatchSimulationResult(states=(), wall_time_s=0.0, num_circuits=0)
        start = time.perf_counter()
        states = encode_circuits(batch, policy=self._policy())
        wall = time.perf_counter() - start

        self.wall_simulation_time_s += wall
        self.num_simulations += len(batch)
        self.num_encode_batches += 1
        return BatchSimulationResult(
            states=tuple(states), wall_time_s=wall, num_circuits=len(batch)
        )

    def inner_product(self, bra: MPS, ket: MPS) -> InnerProductResult:
        """Compute ``<bra|ket>`` and record modelled / measured timings."""
        chi = max(bra.max_bond_dimension, ket.max_bond_dimension)
        modelled = self.cost_model.inner_product_time(bra.num_qubits, chi)
        start = time.perf_counter()
        value = bra.inner_product(ket)
        wall = time.perf_counter() - start

        self.wall_inner_product_time_s += wall
        self.num_inner_products += 1
        return InnerProductResult(
            value=value,
            wall_time_s=wall,
            modelled_time_s=modelled,
            bond_dimension=chi,
        )

    def inner_product_batch(
        self, pairs: Sequence[Tuple[MPS, MPS]]
    ) -> BatchInnerProductResult:
        """Evaluate a chunk of overlaps through the padded BLAS transfer sweep.

        ``num_inner_products`` advances by one per pair, as
        :meth:`inner_product` would.  Each value is within ``1e-12`` of :meth:`inner_product` and does not
        depend on how the chunk was composed (:mod:`repro.mps.batched`), so
        re-batching, tiling or coalescing a workload yields byte-identical
        kernel entries -- the invariant the serving metamorphic tests assert.
        """
        start = time.perf_counter()
        values = batched_overlaps(pairs)
        wall = time.perf_counter() - start
        return self._record_overlaps(values, wall)

    def inner_product_block(
        self, bras: Sequence[MPS], block: StackedStateBlock
    ) -> BatchInnerProductResult:
        """Overlaps of a query batch against a pre-stacked state block.

        The serving fast path: the block's tensors were fused, padded and
        stacked once at fit time, and each query's bra operands once per
        state (:func:`~repro.mps.batched.query_form`).  Queries that share
        their padded bonds are swept in stacks of up to 32 (a serving
        flush) against all ``block.num_states`` states: a chain of up to 8
        qubits is fused whole, so a stack is one GEMV per 128-term slice of
        the amplitudes; a longer chain takes one product for its 7 fused
        leading sites plus two per remaining site.  Every value is
        byte-identical to :meth:`inner_product_batch` on the same pair.
        ``values`` is the 2-D overlap matrix in (query, block state) order;
        ``num_inner_products`` advances by one per entry.
        """
        start = time.perf_counter()
        values = block.overlaps(bras)
        wall = time.perf_counter() - start
        return self._record_overlaps(values, wall)

    def _record_overlaps(self, values: np.ndarray, wall: float) -> BatchInnerProductResult:
        """Count one overlap per entry of ``values``, and the wall time."""
        self.wall_inner_product_time_s += wall
        self.num_inner_products += values.size
        return BatchInnerProductResult(values, wall)

    # ------------------------------------------------------------------
    def lifetime_summary(self) -> dict[str, float]:
        """Snapshot of every counter, accumulated since construction."""
        return {attr: getattr(self, attr) for attr in self._COUNTER_ATTRS}
