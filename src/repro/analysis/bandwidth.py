"""Kernel-bandwidth (gamma) study.

The bandwidth coefficient gamma is the single most influential
hyper-parameter of the feature map: it multiplies every RZ angle and (through
its square) every RXX angle, so it simultaneously controls

* how far apart encoded states are rotated (kernel geometry),
* how much entanglement the circuit generates (simulation cost),
* and therefore whether the model under- or over-fits (Table II).

:func:`bandwidth_study` sweeps gamma and reports, per value, the kernel
concentration statistics, the kernel-target alignment and the simulation cost
proxies -- giving users the same evidence the paper uses to argue that a
moderate bandwidth with a simple ansatz is the sweet spot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..config import AnsatzConfig
from ..exceptions import KernelError
from ..kernels import QuantumKernel, kernel_alignment, kernel_concentration
from ..svm import FeatureScaler

__all__ = ["BandwidthStudyPoint", "bandwidth_study"]


@dataclass(frozen=True)
class BandwidthStudyPoint:
    """Kernel diagnostics at one value of the bandwidth gamma."""

    gamma: float
    off_diagonal_mean: float
    off_diagonal_std: float
    alignment: float
    max_bond_dimension: int
    #: Modelled device seconds of simulating every row alone, summed.
    modelled_simulation_time_s: float

    @property
    def is_concentrated(self) -> bool:
        """Heuristic flag: essentially no off-diagonal structure left."""
        return self.off_diagonal_mean < 1e-3 and self.off_diagonal_std < 1e-3


def bandwidth_study(
    X: np.ndarray,
    y: np.ndarray,
    gammas: Sequence[float],
    num_features: int | None = None,
    interaction_distance: int = 1,
    layers: int = 2,
) -> List[BandwidthStudyPoint]:
    """Sweep gamma and report kernel geometry and cost diagnostics.

    ``X`` is raw (unscaled) feature data; it is scaled to the feature map's
    interval internally.  ``y`` provides the labels for the kernel-target
    alignment.  The modelled simulation time prices each row's per-point
    simulation (:meth:`repro.engine.KernelEngine.simulate_row`), the solo
    primitive the paper times.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y).ravel()
    if X.ndim != 2 or X.shape[0] != y.size:
        raise KernelError("X must be 2-D with one label per row")
    if not gammas:
        raise KernelError("gammas must not be empty")
    m = num_features if num_features is not None else X.shape[1]
    if m > X.shape[1]:
        raise KernelError(f"num_features {m} exceeds data width {X.shape[1]}")

    Xs = FeatureScaler().fit_transform(X[:, :m])
    points: List[BandwidthStudyPoint] = []
    for gamma in gammas:
        ansatz = AnsatzConfig(
            num_features=m,
            interaction_distance=interaction_distance,
            layers=layers,
            gamma=float(gamma),
        )
        kernel = QuantumKernel(ansatz)
        result = kernel.gram_matrix(Xs)
        modelled = sum(kernel.engine.simulate_row(row).modelled_time_s for row in Xs)
        stats = kernel_concentration(result.matrix)
        points.append(
            BandwidthStudyPoint(
                gamma=float(gamma),
                off_diagonal_mean=stats["off_diagonal_mean"],
                off_diagonal_std=stats["off_diagonal_std"],
                alignment=kernel_alignment(result.matrix, y),
                max_bond_dimension=result.max_bond_dimension,
                modelled_simulation_time_s=modelled,
            )
        )
    return points
