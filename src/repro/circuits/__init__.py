"""Quantum circuit intermediate representation and the feature-map ansatz.

The circuit IR is intentionally small: a :class:`Circuit` is an ordered list
of :class:`Operation` objects, each naming a gate, its parameters and its
target qubits.  Two transformation passes operate on circuits:

* :func:`~repro.circuits.routing.route_to_linear_chain` inserts the SWAP
  sandwiches needed so that every two-qubit gate acts on adjacent qubits
  (the MPS simulator's adjacency constraint, section II-C of the paper);
* :func:`~repro.circuits.scheduling.schedule_commuting_layers` packs the
  mutually commuting RXX gates of one ``exp(-i H_XX)`` block into as few
  depth layers as possible (the paper's footnote 3; ``scheduled=True`` --
  the default sorted-edge order serves the MPS sweep instead).

:func:`~repro.circuits.ansatz.build_feature_map_circuit` builds the Ising
feature-map circuit ``U(x)|+>^m`` for one data point;
:func:`~repro.circuits.ansatz.feature_map_gate_stacks` builds the same
circuits for a batch of rows as per-operation gate stacks, from one angle
table and the ansatz's cached :func:`~repro.circuits.ansatz.feature_map_template`.
"""

from .gate import GateKind, Operation, stacked_matrices
from .circuit import Circuit
from .ansatz import (
    TemplateOperation,
    build_feature_map_circuit,
    build_interaction_graph,
    feature_map_angle_table,
    feature_map_angles,
    feature_map_gate_stacks,
    feature_map_template,
    rescale_features,
)
from .routing import route_to_linear_chain, is_routed
from .scheduling import schedule_commuting_layers, circuit_depth

__all__ = [
    "GateKind",
    "Operation",
    "stacked_matrices",
    "Circuit",
    "TemplateOperation",
    "build_feature_map_circuit",
    "build_interaction_graph",
    "feature_map_angles",
    "feature_map_angle_table",
    "feature_map_template",
    "feature_map_gate_stacks",
    "rescale_features",
    "route_to_linear_chain",
    "is_routed",
    "schedule_commuting_layers",
    "circuit_depth",
]
