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
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from ..config import SimulationConfig
from ..exceptions import BackendError
from ..mps import MPS, InstrumentedMPS, TruncationPolicy
from ..mps.batched import StackedStateBlock, batched_overlaps
from ..mps.encoding import (
    GateShapeLog,
    GateStacks,
    circuit_structure_signature,
    encode_circuits,
)
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
    """Outcome of one *batched* circuit-encoding sweep on a backend.

    Attributes
    ----------
    states:
        The encoded MPS, in input order.  Each depends on its own circuit
        only, byte for byte (alone or in any batch), and is within rounding
        of what :meth:`Backend.simulate` produces for it
        (``1 - |<a|b>|^2 <= 1e-12`` at the default cutoff).
    wall_time_s:
        Measured Python time for the whole stacked sweep.
    num_circuits / num_structure_groups:
        Batch size and how many distinct circuit structures it contained.
    """

    states: Tuple[MPS, ...]
    wall_time_s: float
    num_circuits: int
    num_structure_groups: int


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
        #: Stacked-encode accounting: how many batched sweeps ran and how
        #: many stacked gate launches they issued.  These are pure functions
        #: of the encoded circuits (not wall clock), so the telemetry layer
        #: exports them as deterministic counters (``repro_encode_*_total``).
        self.num_encode_batches = 0
        self.num_encode_stacked_launches = 0

    #: Every counter attribute, in :meth:`lifetime_summary` order.
    _COUNTER_ATTRS = (
        "num_simulations",
        "num_inner_products",
        "num_encode_batches",
        "num_encode_stacked_launches",
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

        The per-point reference of the stacked sweep: the engine runs one
        row's :class:`GateStacks` steps through it
        (:meth:`repro.engine.KernelEngine.simulate_row`), as the
        ``track_memory`` fallback of :meth:`simulate_batch` does.
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

    def simulate_batch(
        self,
        circuits: Union[Sequence, GateStacks],
        initial_state: MPS | None = None,
    ) -> BatchSimulationResult:
        """Encode a micro-batch of routed circuits through stacked gate sweeps.

        ``circuits`` is a :class:`~repro.mps.encoding.GateStacks` batch (the
        engine builds one per chunk from the ansatz's angle table) or a
        sequence of circuits, grouped by structure signature (same gate
        targets in the same order -- all feature-map circuits from one
        ansatz qualify).  Each group is swept straight through with one
        stacked gufunc per gate and clamp block
        (:func:`repro.mps.encoding.encode_circuits`) at padded shapes the
        structure and the row's own ranks fix, truncating each row on its
        own singular values.  Every resulting state depends on its own circuit
        alone, **byte for byte**, so callers may batch, split or reorder
        encodes freely without moving a single bit of any downstream kernel
        entry; it is within rounding of :meth:`simulate` on the same circuit
        (same kept ranks and bond dimensions, ``1 - |<a|b>|^2 <= 1e-12`` at
        the default cutoff).

        ``num_simulations`` advances by one per circuit, as if
        :meth:`simulate` had run once per circuit; the measured wall time is
        where batching pays off.  No modelled device time is priced here:
        the figures that report it time :meth:`simulate` one circuit at a
        time (per row, :meth:`repro.engine.KernelEngine.simulate_row`).

        ``initial_state`` is not supported (the stacked sweep always starts
        from ``|0...0>``, which is what every feature-map encode uses); a
        non-default initial state raises :class:`BackendError`.  When the
        configuration requests per-gate memory traces
        (``config.track_memory``) the batch falls back to per-point
        simulation -- instrumentation is inherently per point -- and still
        returns the same states and accounting.
        """
        if initial_state is not None:
            raise BackendError(
                "simulate_batch always encodes from |0...0>; "
                "use simulate() for custom initial states"
            )
        if not isinstance(circuits, GateStacks):
            circuits = list(circuits)
        if not len(circuits):
            return BatchSimulationResult(
                states=(),
                wall_time_s=0.0,
                num_circuits=0,
                num_structure_groups=0,
            )
        if self.config.track_memory:
            if isinstance(circuits, GateStacks):
                results = [
                    self._simulate_steps(circuits.num_qubits, circuits.row(i))
                    for i in range(len(circuits))
                ]
                groups = 1
            else:
                results = [self.simulate(circuit) for circuit in circuits]
                groups = len({circuit_structure_signature(c) for c in circuits})
            return BatchSimulationResult(
                states=tuple(r.state for r in results),
                wall_time_s=sum(r.wall_time_s for r in results),
                num_circuits=len(results),
                num_structure_groups=groups,
            )

        log = GateShapeLog()
        start = time.perf_counter()
        states = encode_circuits(circuits, policy=self._policy(), log=log)
        wall = time.perf_counter() - start

        self.wall_simulation_time_s += wall
        self.num_simulations += len(circuits)
        self.num_encode_batches += 1
        self.num_encode_stacked_launches += log.stacked_launches
        return BatchSimulationResult(
            states=tuple(states),
            wall_time_s=wall,
            num_circuits=len(circuits),
            num_structure_groups=log.structure_groups,
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
