"""Backend protocol and result records.

A backend turns circuits into MPS states and computes inner products between
MPS, reporting both the *measured* wall-clock time (actual Python/NumPy
execution) and the *modelled* device time from its
:class:`~repro.backends.cost_model.DeviceCostModel`.  The correctness of the
output never depends on the backend: both backends run the same algorithm on
the same arrays.
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
    modelled_time_s:
        Sum of the per-pair modelled device times (the device evaluates the
        pairs one by one; batching is a host-side optimisation).
    num_pairs:
        Number of pairs evaluated.
    max_bond_dimension:
        Largest bond dimension seen across the chunk.
    """

    values: "np.ndarray"
    wall_time_s: float
    modelled_time_s: float
    num_pairs: int
    max_bond_dimension: int


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
    modelled_time_s:
        Sum of the per-point modelled device times, each row priced at the
        live shapes a solo simulation has -- the counters advance as if
        :meth:`Backend.simulate` had run once per circuit (addition order
        aside), so engine accounting is invariant under batching.
    num_circuits / num_structure_groups:
        Batch size and how many distinct circuit structures it contained.
    max_bond_dimension / total_memory_bytes:
        Bond-dimension and memory bookkeeping over the final states.
    """

    states: Tuple[MPS, ...]
    wall_time_s: float
    modelled_time_s: float
    num_circuits: int
    num_structure_groups: int
    max_bond_dimension: int
    total_memory_bytes: int


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
        #: Accumulated modelled device seconds, split by primitive.  They
        #: advance as if every primitive had run solo, so they are invariant
        #: under batching.
        self.modelled_simulation_time_s = 0.0
        self.modelled_inner_product_time_s = 0.0
        #: Accumulated measured wall-clock seconds.
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
        #: Lifetime totals: :meth:`reset_counters` folds the live counters in
        #: here instead of dropping them, so the engine's per-call accounting
        #: and the telemetry layer's monotone counters can coexist.
        self._lifetime: dict[str, float] = {}

    #: Every numeric counter attribute; reset_counters / lifetime_summary
    #: iterate this so the two views can never drift apart.
    _COUNTER_ATTRS = (
        "num_simulations",
        "num_inner_products",
        "num_encode_batches",
        "num_encode_stacked_launches",
        "modelled_simulation_time_s",
        "modelled_inner_product_time_s",
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

        self.modelled_simulation_time_s += modelled
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

        Counters advance as if :meth:`simulate` had been called once per
        circuit (same ``num_simulations``; the modelled seconds price every
        row's live pre-gate shapes, addition order aside); the measured wall
        time is where batching pays off.

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
                modelled_time_s=0.0,
                num_circuits=0,
                num_structure_groups=0,
                max_bond_dimension=1,
                total_memory_bytes=0,
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
                modelled_time_s=sum(r.modelled_time_s for r in results),
                num_circuits=len(results),
                num_structure_groups=groups,
                max_bond_dimension=max(r.max_bond_dimension for r in results),
                total_memory_bytes=sum(r.memory_bytes for r in results),
            )

        log = GateShapeLog()
        start = time.perf_counter()
        states = encode_circuits(circuits, policy=self._policy(), log=log)
        wall = time.perf_counter() - start

        modelled = 0.0
        for entry in log.entries:
            if entry[0] == "1q":
                _kind, count, chi_l, chi_r = entry
                modelled += count * self.cost_model.single_qubit_gate_time(
                    chi_l, chi_r
                )
            else:
                _kind, count, chi_l, chi_m, chi_r = entry
                modelled += count * self.cost_model.two_qubit_gate_time(
                    chi_l, chi_m, chi_r
                )

        self.modelled_simulation_time_s += modelled
        self.wall_simulation_time_s += wall
        self.num_simulations += len(circuits)
        self.num_encode_batches += 1
        self.num_encode_stacked_launches += log.stacked_launches
        return BatchSimulationResult(
            states=tuple(states),
            wall_time_s=wall,
            modelled_time_s=modelled,
            num_circuits=len(circuits),
            num_structure_groups=log.structure_groups,
            max_bond_dimension=max(s.max_bond_dimension for s in states),
            total_memory_bytes=sum(s.memory_bytes for s in states),
        )

    def inner_product(self, bra: MPS, ket: MPS) -> InnerProductResult:
        """Compute ``<bra|ket>`` and record modelled / measured timings."""
        chi = max(bra.max_bond_dimension, ket.max_bond_dimension)
        modelled = self.cost_model.inner_product_time(bra.num_qubits, chi)
        start = time.perf_counter()
        value = bra.inner_product(ket)
        wall = time.perf_counter() - start

        self.modelled_inner_product_time_s += modelled
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

        Counters advance exactly as if :meth:`inner_product` had been called
        once per pair, in order (same modelled seconds to the last bit, same
        ``num_inner_products``), so strategies and benchmarks can switch
        freely between the paths.
        Each value is within ``1e-12`` of :meth:`inner_product` and does not
        depend on how the chunk was composed (:mod:`repro.mps.batched`), so
        re-batching, tiling or coalescing a workload yields byte-identical
        kernel entries -- the invariant the serving metamorphic tests assert.
        """
        chis = [max(bra.max_bond_dimension, ket.max_bond_dimension) for bra, ket in pairs]
        start = time.perf_counter()
        values = batched_overlaps(pairs)
        wall = time.perf_counter() - start
        num_qubits = pairs[0][0].num_qubits if pairs else 0
        return self._record_overlaps(values, chis, num_qubits, wall)

    def inner_product_block(
        self, bras: Sequence[MPS], block: StackedStateBlock
    ) -> BatchInnerProductResult:
        """Overlaps of a query batch against a pre-stacked state block.

        The serving fast path: the block's tensors were padded and stacked
        once at fit time, so each query costs two BLAS matmuls per site
        against all ``block.num_states`` states, and every value is
        byte-identical to :meth:`inner_product_batch` on the same pair.
        ``values`` is the 2-D overlap matrix in (query, block state) order;
        counters advance exactly as if each pair had been evaluated
        individually, in that order.
        """
        chis = np.maximum.outer([b.max_bond_dimension for b in bras], block.max_bond_dimensions)
        start = time.perf_counter()
        values = block.overlaps(bras)
        wall = time.perf_counter() - start
        return self._record_overlaps(values, chis, block.num_qubits, wall)

    def _record_overlaps(
        self, values: np.ndarray, chis, num_qubits: int, wall: float
    ) -> BatchInnerProductResult:
        """Charge one overlap per entry of ``chis`` to the counters.

        Each pair is charged what a solo :meth:`inner_product` call charges,
        one after another in ``chis`` order (``np.cumsum`` adds
        sequentially), so the counters are byte-identical to a per-pair loop
        over the same pairs however they were split into calls.
        """
        chis = np.asarray(chis, dtype=int).ravel()
        unique_chis, inverse = np.unique(chis, return_inverse=True)
        per_chi = np.array(
            [self.cost_model.inner_product_time(num_qubits, chi) for chi in unique_chis.tolist()]
        )
        times = per_chi[inverse]
        num_pairs = int(chis.size)
        modelled = float(np.cumsum(times)[-1]) if num_pairs else 0.0
        self.modelled_inner_product_time_s = float(
            np.cumsum(np.concatenate(([self.modelled_inner_product_time_s], times)))[-1]
        )
        self.wall_inner_product_time_s += wall
        self.num_inner_products += num_pairs
        return BatchInnerProductResult(
            values=values,
            wall_time_s=wall,
            modelled_time_s=modelled,
            num_pairs=num_pairs,
            max_bond_dimension=int(unique_chis.max()) if num_pairs else 1,
        )

    # ------------------------------------------------------------------
    def reset_counters(self) -> None:
        """Zero the per-call counters, folding them into the lifetime totals.

        The engine resets before every public call so :class:`EngineResult`
        reports per-call figures; the fold keeps :meth:`lifetime_summary`
        monotone across those resets for the telemetry exporters.
        """
        for attr in self._COUNTER_ATTRS:
            self._lifetime[attr] = self._lifetime.get(attr, 0) + getattr(self, attr)
        self.modelled_simulation_time_s = 0.0
        self.modelled_inner_product_time_s = 0.0
        self.wall_simulation_time_s = 0.0
        self.wall_inner_product_time_s = 0.0
        self.num_simulations = 0
        self.num_inner_products = 0
        self.num_encode_batches = 0
        self.num_encode_stacked_launches = 0

    def lifetime_summary(self) -> dict[str, float]:
        """Counters accumulated since construction, surviving resets."""
        return {
            attr: self._lifetime.get(attr, 0) + getattr(self, attr)
            for attr in self._COUNTER_ATTRS
        }

    def timing_summary(self) -> dict[str, float]:
        """Accumulated timing counters as a flat dictionary."""
        return {
            "backend": self.name,
            "num_simulations": self.num_simulations,
            "num_inner_products": self.num_inner_products,
            "num_encode_batches": self.num_encode_batches,
            "num_encode_stacked_launches": self.num_encode_stacked_launches,
            "modelled_simulation_time_s": self.modelled_simulation_time_s,
            "modelled_inner_product_time_s": self.modelled_inner_product_time_s,
            "wall_simulation_time_s": self.wall_simulation_time_s,
            "wall_inner_product_time_s": self.wall_inner_product_time_s,
        }
