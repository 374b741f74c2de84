"""The Ising feature-map ansatz (paper section II-A and II-C).

The circuit preparing ``|psi(x)> = U(x)|+>^m`` for a data point ``x`` with
``m`` features is::

    U(x) = [ exp(-i H_XX(x)) * exp(-i H_Z(x)) ]^r

with the data-dependent Hamiltonians of equations (4) and (5)::

    H_Z(x)  = gamma     * sum_i            x_i            Z_i
    H_XX(x) = gamma^2 * (pi/2) * sum_{(i,j) in G} (1 - x_i)(1 - x_j) X_i X_j

where ``G`` is a linear chain whose edges connect qubits at distance at most
``d`` (the *interaction distance*).  Data is first rescaled to the real
interval ``(0, 2)``.

Gate-angle conventions
----------------------
Our rotation gates are defined as ``RZ(theta) = exp(-i theta Z / 2)`` and
``RXX(theta) = exp(-i theta XX / 2)`` (see :mod:`repro.mps.gates`).  The
Hamiltonian exponentials therefore translate to::

    exp(-i gamma x_i Z_i)                      ->  RZ(2 * gamma * x_i)
    exp(-i gamma^2 (pi/2)(1-x_i)(1-x_j) XX)    ->  RXX(gamma^2 * pi * (1-x_i)(1-x_j))

These conversions are carried out by :func:`feature_map_angles` so that tests
can verify them independently of circuit construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import networkx as nx
import numpy as np

from ..config import AnsatzConfig
from ..exceptions import CircuitError
from .circuit import Circuit
from .gate import GateKind, Operation
from .routing import route_to_linear_chain
from .scheduling import schedule_commuting_layers

__all__ = [
    "rescale_features",
    "build_interaction_graph",
    "feature_map_angles",
    "build_feature_map_circuit",
]


def rescale_features(
    features: np.ndarray,
    lower: float = 0.0,
    upper: float = 2.0,
) -> np.ndarray:
    """Clip-free affine rescaling of a feature vector into ``(lower, upper)``.

    The paper rescales every data vector to the real interval ``(0, 2)``
    before encoding.  This helper rescales a *single vector*; dataset-level
    scaling (fit on the training split, apply to both splits) lives in
    :mod:`repro.svm.preprocessing`.  Constant vectors map to the interval
    midpoint.
    """
    x = np.asarray(features, dtype=float).ravel()
    if x.size == 0:
        raise CircuitError("cannot rescale an empty feature vector")
    xmin, xmax = float(np.min(x)), float(np.max(x))
    if xmax == xmin:
        return np.full_like(x, (lower + upper) / 2.0)
    scaled = (x - xmin) / (xmax - xmin)
    return lower + scaled * (upper - lower)


def build_interaction_graph(num_qubits: int, interaction_distance: int) -> nx.Graph:
    """Linear-chain interaction graph with edges up to distance ``d``.

    Edge ``(i, j)`` is included whenever ``0 < j - i <= d``.  The graph's
    edges are the terms of ``H_XX`` in equation (5); more edges mean more Lie
    algebra generators and thus a more expressive feature map.
    """
    if num_qubits < 1:
        raise CircuitError("num_qubits must be >= 1")
    if interaction_distance < 1:
        raise CircuitError("interaction_distance must be >= 1")
    graph = nx.Graph()
    graph.add_nodes_from(range(num_qubits))
    for i in range(num_qubits):
        for j in range(i + 1, min(i + interaction_distance, num_qubits - 1) + 1):
            graph.add_edge(i, j, distance=j - i)
    return graph


@dataclass(frozen=True)
class FeatureMapAngles:
    """Gate angles for one data point.

    Attributes
    ----------
    rz_angles:
        Angle of the RZ gate on each qubit (length ``m``).
    rxx_angles:
        Mapping ``(i, j) -> angle`` for each interaction-graph edge with
        ``i < j``.
    """

    rz_angles: np.ndarray
    rxx_angles: dict[Tuple[int, int], float]


def feature_map_angles(
    features: np.ndarray,
    config: AnsatzConfig,
) -> FeatureMapAngles:
    """Compute the RZ / RXX angles of one ansatz layer for a data point.

    ``features`` must already be rescaled to ``(0, 2)`` and have length
    ``config.num_features``.
    """
    x = np.asarray(features, dtype=float).ravel()
    if x.size != config.num_features:
        raise CircuitError(
            f"expected {config.num_features} features, got {x.size}"
        )
    gamma = config.gamma
    rz_angles = 2.0 * gamma * x
    graph = build_interaction_graph(config.num_features, config.interaction_distance)
    rxx_angles: dict[Tuple[int, int], float] = {}
    for i, j in sorted(graph.edges()):
        lo, hi = (i, j) if i < j else (j, i)
        rxx_angles[(lo, hi)] = float(
            gamma * gamma * np.pi * (1.0 - x[lo]) * (1.0 - x[hi])
        )
    return FeatureMapAngles(rz_angles=rz_angles, rxx_angles=rxx_angles)


def build_feature_map_circuit(
    features: np.ndarray,
    config: AnsatzConfig,
    *,
    routed: bool = True,
    scheduled: bool = True,
    include_state_prep: bool = True,
) -> Circuit:
    """Build the full circuit preparing ``U(x)|+>^m`` for one data point.

    Parameters
    ----------
    features:
        Feature vector of length ``m`` already rescaled to ``(0, 2)``.
    config:
        Ansatz hyper-parameters (``m``, ``d``, ``r``, ``gamma``).
    routed:
        If ``True`` (default), long-range RXX gates (``d > 1``) are wrapped
        in SWAP sandwiches so every two-qubit gate is nearest-neighbour and
        the circuit can be fed directly to the MPS simulator.
    scheduled:
        If ``True`` (default), the commuting RXX gates within each
        ``exp(-i H_XX)`` block are re-ordered to minimise circuit depth
        (paper footnote 3).  Scheduling changes only the order of commuting
        gates, never the unitary.
    include_state_prep:
        Whether to prepend the Hadamard layer creating ``|+>^m``.  Disabling
        it is useful when the caller wants the bare ``U(x)``.

    Returns
    -------
    Circuit
        The constructed circuit, with each gate tagged ``"prep"``, ``"HZ"``,
        ``"HXX"`` or ``"routing"``.
    """
    angles = feature_map_angles(features, config)
    m = config.num_features
    circuit = Circuit(m)

    if include_state_prep:
        for q in range(m):
            circuit.add(GateKind.H, q, tag="prep")

    edge_list: List[Tuple[Tuple[int, int], float]] = sorted(angles.rxx_angles.items())

    for _layer in range(config.layers):
        # exp(-i H_Z): one RZ per qubit.
        for q in range(m):
            circuit.add(GateKind.RZ, q, angle=float(angles.rz_angles[q]), tag="HZ")
        # exp(-i H_XX): one RXX per interaction-graph edge.  All RXX gates
        # commute, so the emission order is free; scheduling optimises it.
        hxx_ops = [
            Operation(GateKind.RXX, (i, j), angle=theta, tag="HXX")
            for (i, j), theta in edge_list
        ]
        if scheduled:
            hxx_ops = schedule_commuting_layers(hxx_ops, m)
        circuit.extend(hxx_ops)

    if routed:
        circuit = route_to_linear_chain(circuit)
    return circuit
