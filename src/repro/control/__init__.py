"""Adaptive control plane: closed-loop tuning of the serving tier's knobs.

Every performance knob of the serving tier is otherwise frozen at
construction time (``max_batch``, ``encode_batch_size``, the shed
high-water mark), so the throughput/admission trade-off is tuned for
exactly one traffic shape.  This package closes the loop:

* :mod:`~repro.control.policy` -- :class:`ControlPolicy` implementations
  mapping observed :class:`ControlSignals` to knob proposals, behind the
  ``CONTROL_POLICIES`` registry (``"static"`` -- the old behaviour -- and
  ``"depth-proportional"`` AIMD);
* :mod:`~repro.control.controller` -- :class:`AdaptiveController`, the
  damped loop (bound clamping, per-knob cooldown, dead band) that observes
  a queue or replica fleet and applies surviving proposals through the
  serving tier's versioned ``apply_tuning`` surface.

The package never imports :mod:`repro.serving` -- targets are duck-typed --
so control stays a leaf the serving layer can depend on for its
:func:`repro.serve` handle without a cycle.  The whole loop moves *when*
work happens, never *what* it computes: predictions are byte-identical with
any policy on or off.
"""

from .controller import AdaptiveController, ControlDecision
from .policy import (
    CONTROL_POLICIES,
    ControlPolicy,
    ControlSignals,
    DepthProportionalPolicy,
    StaticPolicy,
    make_control_policy,
)

__all__ = [
    "AdaptiveController",
    "ControlDecision",
    "ControlPolicy",
    "ControlSignals",
    "StaticPolicy",
    "DepthProportionalPolicy",
    "CONTROL_POLICIES",
    "make_control_policy",
]
