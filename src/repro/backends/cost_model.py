"""Device cost models for the CPU and (simulated) GPU backends.

The paper's Figure 5 measures the wall-clock time of the two expensive
primitives -- MPS simulation of one circuit and one MPS inner product -- on a
CPU backend (ITensors / AMD EPYC 7763) and a GPU backend (pytket-cutensornet
/ NVIDIA A100), as the qubit interaction distance (and therefore the bond
dimension chi) grows.  The qualitative findings are:

* for small chi the CPU is faster, because the GPU pays a per-operation
  launch / transfer overhead that dwarfs the tiny contractions;
* both backends scale as ``O(m * chi^3)`` asymptotically, but the GPU's
  effective throughput on large contractions is far higher, so beyond a
  crossover (chi ~ 320 in the paper) the GPU wins -- dramatically so for the
  inner-product task.

Since no physical GPU is available in this environment we reproduce that
behaviour with an explicit analytic cost model.  A
:class:`DeviceCostModel` charges, for each primitive operation on tensors of
known size:

    time = launch_overhead + flops / effective_flops

where ``flops`` is the standard dense-contraction / SVD operation count for
the tensor shapes involved.  The default constants are calibrated so that the
CPU/GPU crossover happens at a bond dimension of a few hundred, matching the
shape of the paper's Figure 5 and Table I.  The constants are plain dataclass
fields so ablation benchmarks can explore other device balances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..exceptions import ConfigurationError

__all__ = [
    "DeviceCostModel",
    "CPU_COST_MODEL",
    "GPU_COST_MODEL",
    "preferred_cross_model",
]


@dataclass(frozen=True)
class DeviceCostModel:
    """Analytic wall-clock model of one device executing MPS primitives.

    Parameters
    ----------
    name:
        Human-readable device name used in benchmark records.
    gate_overhead_s:
        Fixed per-gate-application overhead (kernel launches, Python/driver
        dispatch, host-device synchronisation).
    svd_overhead_s:
        Additional fixed overhead per SVD (two-qubit gates only).
    contraction_gflops:
        Effective throughput, in GFLOP/s, achieved on tensor contractions.
    svd_gflops:
        Effective throughput achieved on SVD factorisations (typically much
        lower than raw contraction throughput, especially on GPUs).
    transfer_overhead_s:
        Per-primitive host-device transfer cost (zero for the CPU).
    """

    name: str
    gate_overhead_s: float
    svd_overhead_s: float
    contraction_gflops: float
    svd_gflops: float
    transfer_overhead_s: float = 0.0

    def __post_init__(self) -> None:
        if self.contraction_gflops <= 0 or self.svd_gflops <= 0:
            raise ConfigurationError("throughputs must be positive")
        if min(self.gate_overhead_s, self.svd_overhead_s, self.transfer_overhead_s) < 0:
            raise ConfigurationError("overheads must be non-negative")

    # -- FLOP counting -------------------------------------------------
    @staticmethod
    def single_qubit_gate_flops(chi_left: int, chi_right: int) -> float:
        """Contraction of a 2x2 gate with a (chi_l, 2, chi_r) site tensor."""
        return 8.0 * chi_left * chi_right  # 2*2*2 multiply-adds per entry pair

    @staticmethod
    def two_qubit_gate_flops(chi_left: int, chi_mid: int, chi_right: int) -> float:
        """Merge + gate contraction + SVD for one two-qubit gate.

        The dominant terms: forming theta costs ``4 * chi_l * chi_m * chi_r``
        multiply-adds, applying the 4x4 gate costs ``16 * chi_l * chi_r``
        per output entry, and the SVD of the ``(2 chi_l) x (2 chi_r)`` matrix
        costs ``~ 14 * min^2 * max`` flops (LAPACK estimate).
        """
        merge = 2.0 * 4.0 * chi_left * chi_mid * chi_right
        gate = 2.0 * 16.0 * chi_left * chi_right
        rows, cols = 2 * chi_left, 2 * chi_right
        small, large = (rows, cols) if rows <= cols else (cols, rows)
        svd = 14.0 * small * small * large
        return merge + gate + svd

    @staticmethod
    def inner_product_flops(num_qubits: int, chi: int) -> float:
        """Transfer-matrix contraction of two MPS: ``O(m * chi^3)``."""
        # Per site: two contractions each ~ 2 * 2 * chi^3 multiply-adds.
        return num_qubits * 2.0 * (2.0 * chi**3 + 2.0 * chi**3)

    # -- Time models ---------------------------------------------------
    def single_qubit_gate_time(self, chi_left: int, chi_right: int) -> float:
        """Modelled seconds for one single-qubit gate application."""
        flops = self.single_qubit_gate_flops(chi_left, chi_right)
        return (
            self.gate_overhead_s
            + self.transfer_overhead_s
            + flops / (self.contraction_gflops * 1e9)
        )

    def two_qubit_gate_time(
        self, chi_left: int, chi_mid: int, chi_right: int
    ) -> float:
        """Modelled seconds for one two-qubit gate (merge + gate + SVD)."""
        merge_gate = (
            2.0 * 4.0 * chi_left * chi_mid * chi_right
            + 2.0 * 16.0 * chi_left * chi_right
        )
        rows, cols = 2 * chi_left, 2 * chi_right
        small, large = (rows, cols) if rows <= cols else (cols, rows)
        svd_flops = 14.0 * small * small * large
        return (
            self.gate_overhead_s
            + self.svd_overhead_s
            + self.transfer_overhead_s
            + merge_gate / (self.contraction_gflops * 1e9)
            + svd_flops / (self.svd_gflops * 1e9)
        )

    def inner_product_time(self, num_qubits: int, chi: int) -> float:
        """Modelled seconds for one MPS-MPS inner product.

        The transfer-matrix sweep issues one contraction per site, so the
        per-call overhead is charged once per qubit -- this is what makes the
        GPU's inner-product curve nearly flat at small bond dimension
        (Fig. 5b) until the ``chi^3`` term takes over.

        This prices the per-site device sweep the paper times, one
        :meth:`repro.backends.Backend.inner_product` call at a time.  The
        batched host sweeps (:mod:`repro.mps.batched`) fuse a state's leading
        sites into one BLAS product and stack many pairs; they are counted
        and timed, never priced.
        """
        flops = self.inner_product_flops(num_qubits, chi)
        return (
            (self.gate_overhead_s + self.transfer_overhead_s) * num_qubits
            + flops / (self.contraction_gflops * 1e9)
        )

    @staticmethod
    def batched_inner_product_flops(batch: int, num_qubits: int, chi: int) -> float:
        """Arithmetic of ``batch`` same-shape overlaps: flops scale, shapes don't."""
        return batch * DeviceCostModel.inner_product_flops(num_qubits, chi)

    def batched_inner_product_time(
        self, batch: int, num_qubits: int, chi: int
    ) -> float:
        """Modelled seconds for one *stacked* overlap sweep of ``batch`` pairs.

        The block sweep (:meth:`repro.backends.Backend.inner_product_block`)
        contracts all pairs in one padded stack per site, so the
        per-site launch/transfer overhead is charged once per stack instead of
        once per pair, while the arithmetic still scales with the batch.  At
        ``batch == 1`` this equals :meth:`inner_product_time` exactly.  This
        is the entry :func:`preferred_cross_model` compares in the extended
        Fig. 5 crossover study.
        """
        flops = self.batched_inner_product_flops(batch, num_qubits, chi)
        return (
            (self.gate_overhead_s + self.transfer_overhead_s) * num_qubits
            + flops / (self.contraction_gflops * 1e9)
        )

    def cross_sweep_time(
        self, num_rows: int, num_cols: int, num_qubits: int, chi: int
    ) -> float:
        """Modelled seconds for one stacked ``rows x cols`` cross-Gram block.

        The Nystrom ``K_nm`` block evaluates every (query, landmark) pair in
        one block sweep, so it is a batched inner product with
        ``rows * cols`` members -- the quantity the extended Fig. 5 crossover
        study plots per device.
        """
        return self.batched_inner_product_time(num_rows * num_cols, num_qubits, chi)


#: CPU model: negligible launch overhead, moderate sustained throughput.
#: Calibrated against a single AMD EPYC 7763 core running optimised BLAS.
CPU_COST_MODEL = DeviceCostModel(
    name="cpu-epyc7763",
    gate_overhead_s=2.0e-6,
    svd_overhead_s=8.0e-6,
    contraction_gflops=35.0,
    svd_gflops=6.0,
    transfer_overhead_s=0.0,
)

#: GPU model: large per-call overhead (kernel launch + Python driver +
#: host-device sync) but an order of magnitude more throughput on large
#: contractions.  Calibrated so the crossover with the CPU model lands at a
#: bond dimension in the low hundreds, the regime the paper reports
#: (chi ~ 137-320 between d = 8 and d = 10).
GPU_COST_MODEL = DeviceCostModel(
    name="gpu-a100",
    gate_overhead_s=1.0e-3,
    svd_overhead_s=2.0e-3,
    contraction_gflops=900.0,
    svd_gflops=45.0,
    transfer_overhead_s=5.0e-5,
)


def preferred_cross_model(
    num_pairs: int,
    num_qubits: int,
    chi: int,
    models: Sequence[DeviceCostModel] = (CPU_COST_MODEL, GPU_COST_MODEL),
) -> DeviceCostModel:
    """The device whose model predicts the cheapest stacked cross sweep.

    This is the Fig. 5 crossover decision applied to the Nystrom ``K_nm``
    block: at small ``chi`` the CPU wins (the GPU's per-site launch overhead
    dwarfs the tiny contractions); once ``batch * chi^3`` arithmetic dominates
    the GPU's throughput advantage takes over.  Ties go to the earlier model
    in ``models`` (the CPU by default), matching ``min`` semantics, so the
    dispatch is deterministic.
    """
    if not models:
        raise ConfigurationError("preferred_cross_model needs at least one model")
    return min(
        models,
        key=lambda m: m.batched_inner_product_time(num_pairs, num_qubits, chi),
    )
