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

These conversions are carried out once, for a whole ``(g, m)`` batch of
rows, by :func:`feature_map_angle_table`; :func:`feature_map_angles` reads
one row of it so that tests can verify them independently of circuit
construction.

Angle table
-----------
Every circuit of one ansatz has the same routed gate sequence; only the
angles differ per data point.  :func:`feature_map_template` derives that
sequence once per ansatz, with each gate's *angle source*: an RZ feature
column, an RXX edge column of the angle table, or none for a fixed gate.
A single circuit fills the template from one table row
(:func:`build_feature_map_circuit`); a batch of rows becomes one
``(g, d, d)`` gate stack per MPS step (:func:`feature_map_gate_stacks`),
which the stacked MPS sweep consumes without any per-row circuit object.

Gate order
----------
The RXX gates of one ``exp(-i H_XX)`` block commute, so their order is
free, and two orders serve two goals:

* **sorted-edge order** (the default, ``scheduled=False``) serves the MPS
  simulator.  Edges ``(0, 1), (0, 2), (1, 2), (1, 3), ...`` walk the chain
  left to right, so the orthogonality centre travels little between
  two-qubit gates, and an adjacent RXX is directly followed by the routing
  SWAP of the next edge on the same pair.  :func:`feature_map_gate_stacks`
  multiplies each such run of two-qubit gates on one pair into one
  ``(g, 4, 4)`` step, so the sweep pays one SVD for it.  For 8 qubits at
  ``d = 2`` and ``r = 2`` that is 38 two-qubit steps and 31 centre moves,
  against 50 gates and 74 moves in the depth order.
* **depth order** (``scheduled=True``) is the paper's footnote-3 layout:
  :func:`~repro.circuits.scheduling.schedule_commuting_layers` packs the
  gates so every qubit is busy at each time step, which minimises circuit
  depth on hardware but makes an MPS sweep zig-zag.  The figure benchmarks
  simulate this order, as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

import networkx as nx
import numpy as np

from ..config import AnsatzConfig
from ..exceptions import CircuitError
from ..mps.encoding import GateStacks
from .circuit import Circuit
from .gate import GateKind, Operation, stacked_matrices
from .routing import route_to_linear_chain
from .scheduling import schedule_commuting_layers

__all__ = [
    "rescale_features",
    "build_interaction_graph",
    "feature_map_angles",
    "feature_map_angle_table",
    "TemplateOperation",
    "feature_map_template",
    "build_feature_map_circuit",
    "feature_map_gate_stacks",
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


@lru_cache(maxsize=None)
def _edges(num_features: int, interaction_distance: int) -> Tuple[Tuple[int, int], ...]:
    """Sorted ``(lo, hi)`` interaction-graph edges: the RXX table columns."""
    graph = build_interaction_graph(num_features, interaction_distance)
    return tuple(sorted((min(i, j), max(i, j)) for i, j in graph.edges()))


def feature_map_angle_table(X: np.ndarray, config: AnsatzConfig) -> np.ndarray:
    """RZ and RXX angles of one ansatz layer for every row of ``X``.

    ``X`` is a ``(g, m)`` matrix of rows already rescaled to ``(0, 2)``.
    Column ``q < m`` holds the RZ angle of qubit ``q``; column ``m + e``
    holds the RXX angle of the ``e``-th edge of the sorted interaction-graph
    edge list.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != config.num_features:
        raise CircuitError(
            f"expected rows of {config.num_features} features, got shape {X.shape}"
        )
    gamma = config.gamma
    m = config.num_features
    edges = _edges(m, config.interaction_distance)
    table = np.empty((X.shape[0], m + len(edges)))
    table[:, :m] = 2.0 * gamma * X
    for e, (lo, hi) in enumerate(edges):
        table[:, m + e] = gamma * gamma * np.pi * (1.0 - X[:, lo]) * (1.0 - X[:, hi])
    return table


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
    row = feature_map_angle_table(x[None, :], config)[0]
    m = config.num_features
    edges = _edges(m, config.interaction_distance)
    return FeatureMapAngles(
        rz_angles=row[:m].copy(),
        rxx_angles={edge: float(row[m + e]) for e, edge in enumerate(edges)},
    )


@dataclass(frozen=True)
class TemplateOperation:
    """One gate of a feature-map template.

    ``column`` is the angle-table column the gate's angle comes from, or
    ``-1`` for a fixed gate (Hadamard, routing SWAP).
    """

    kind: GateKind
    qubits: Tuple[int, ...]
    column: int
    tag: str


@lru_cache(maxsize=None)
def feature_map_template(
    config: AnsatzConfig,
    *,
    routed: bool = True,
    scheduled: bool = False,
    include_state_prep: bool = True,
) -> Tuple[TemplateOperation, ...]:
    """The gate sequence every feature-map circuit of ``config`` shares.

    Built once per ansatz and option set: the ops of
    :func:`build_feature_map_circuit` in order, each with its angle-table
    column in place of an angle.  Scheduling and routing only reorder and
    wrap gates, never read their angles, so the template is exact for every
    data point.
    """
    m = config.num_features
    circuit = Circuit(m)
    if include_state_prep:
        for q in range(m):
            circuit.add(GateKind.H, q, tag="prep")
    # While the template is built, an Operation's angle carries its column.
    edges = _edges(m, config.interaction_distance)
    for _layer in range(config.layers):
        # exp(-i H_Z): one RZ per qubit.
        for q in range(m):
            circuit.add(GateKind.RZ, q, angle=float(q), tag="HZ")
        # exp(-i H_XX): one RXX per interaction-graph edge.  All RXX gates
        # commute, so the emission order is free: sorted edges for the MPS
        # sweep, or the depth-compacted schedule.
        hxx_ops = [
            Operation(GateKind.RXX, edge, angle=float(m + e), tag="HXX")
            for e, edge in enumerate(edges)
        ]
        if scheduled:
            hxx_ops = schedule_commuting_layers(hxx_ops, m)
        circuit.extend(hxx_ops)
    if routed:
        circuit = route_to_linear_chain(circuit)
    return tuple(
        TemplateOperation(
            kind=op.kind,
            qubits=op.qubits,
            column=int(op.angle) if op.kind.is_parameterised else -1,
            tag=op.tag,
        )
        for op in circuit
    )


def build_feature_map_circuit(
    features: np.ndarray,
    config: AnsatzConfig,
    *,
    routed: bool = True,
    scheduled: bool = False,
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
        If ``True``, the commuting RXX gates within each ``exp(-i H_XX)``
        block are re-ordered to minimise circuit depth (paper footnote 3).
        The default ``False`` emits them in sorted-edge order, the order
        that serves the MPS sweep (see the module docstring).  The order
        changes only the sequence of commuting gates, never the unitary.
    include_state_prep:
        Whether to prepend the Hadamard layer creating ``|+>^m``.  Disabling
        it is useful when the caller wants the bare ``U(x)``.

    Returns
    -------
    Circuit
        The constructed circuit, with each gate tagged ``"prep"``, ``"HZ"``,
        ``"HXX"`` or ``"routing"``.
    """
    x = np.asarray(features, dtype=float).ravel()
    if x.size != config.num_features:
        raise CircuitError(
            f"expected {config.num_features} features, got {x.size}"
        )
    row = feature_map_angle_table(x[None, :], config)[0]
    template = feature_map_template(
        config,
        routed=routed,
        scheduled=scheduled,
        include_state_prep=include_state_prep,
    )
    return Circuit(
        config.num_features,
        (
            Operation(
                op.kind,
                op.qubits,
                angle=float(row[op.column]) if op.column >= 0 else 0.0,
                tag=op.tag,
            )
            for op in template
        ),
    )


@lru_cache(maxsize=None)
def _sweep_steps(config: AnsatzConfig) -> Tuple[Tuple[TemplateOperation, ...], ...]:
    """The default template's gates grouped into MPS steps: each run of
    consecutive two-qubit gates on one pair is one step, every other gate
    a step of its own."""
    steps: list = []
    for op in feature_map_template(config):
        if len(op.qubits) == 2 and steps and steps[-1][-1].qubits == op.qubits:
            steps[-1].append(op)
        else:
            steps.append([op])
    return tuple(tuple(step) for step in steps)


def feature_map_gate_stacks(X: np.ndarray, config: AnsatzConfig) -> GateStacks:
    """Routed feature-map circuits of every row of ``X`` as MPS steps.

    The steps follow the sorted-edge template, with each run of consecutive
    two-qubit gates on one pair -- an adjacent RXX and the routing SWAP
    right after it -- multiplied into one ``(g, 4, 4)`` step, so the sweep
    splits the pair once.  Every stack is built from the angle table in one
    vectorised step per distinct gate run (the ``r`` layers share their
    stacks).  Row ``i`` of a one-gate step is byte-equal to that gate's
    ``build_feature_map_circuit(X[i], config)`` matrix; a merged step is the
    matrix product of its gates, the later gate on the left.
    """
    table = feature_map_angle_table(X, config)
    stacks: Dict[Tuple[Tuple[GateKind, int], ...], np.ndarray] = {}
    gates = []
    steps = _sweep_steps(config)
    for step in steps:
        key = tuple((op.kind, op.column) for op in step)
        if key not in stacks:
            product = None
            for op in step:
                angles = table[:, op.column] if op.column >= 0 else np.zeros(len(table))
                matrices = stacked_matrices(op.kind, angles)
                product = matrices if product is None else np.matmul(matrices, product)
            stacks[key] = product
        gates.append(stacks[key])
    return GateStacks(
        num_qubits=config.num_features,
        num_circuits=len(table),
        targets=tuple(step[0].qubits for step in steps),
        gates=tuple(gates),
    )
