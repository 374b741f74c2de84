"""Control policies: observed serving signals in, knob proposals out.

A :class:`ControlPolicy` is the pure decision kernel of the adaptive control
plane: given one :class:`ControlSignals` observation, the current knob
values and the operator's :class:`~repro.config.TuningConfig` bounds, it
proposes new values for any subset of the tunable knobs.  Policies never
touch the serving tier -- the :class:`~repro.control.AdaptiveController`
owns observation, damping (clamping, cooldown, dead band) and application
-- so a policy is trivially unit-testable with synthetic signals.

Two registry entries ship:

* ``"static"`` -- never proposes anything; exactly the pre-control-plane
  behaviour, and the default.
* ``"depth-proportional"`` -- AIMD on the batch size driven by queue
  *pressure* (pending depth over batch size): additive growth under
  sustained pressure or shedding, multiplicative shrink when the queue runs
  shallow; the shed threshold tracks a multiple of the batch size so
  admission follows service capacity.

The coalescer is work-conserving, so there is no wait to tune: the batch
cap only bounds how much of a backlog one flush takes.

Whatever the policy, predictions are byte-identical with the controller on
or off: every knob it may move only re-times or re-chunks work whose values
are batching-invariant by the engine's contract.  The metamorphic suite
pins that.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Mapping

from ..config import TuningConfig
from ..exceptions import ControlError

__all__ = [
    "ControlSignals",
    "ControlPolicy",
    "StaticPolicy",
    "DepthProportionalPolicy",
    "CONTROL_POLICIES",
    "make_control_policy",
]


@dataclass(frozen=True)
class ControlSignals:
    """One observation of the serving tier, as the policies consume it.

    ``queue_depth`` is the deepest alive replica's pending count (the
    admission-relevant depth), ``arrival_rate_rps`` the enqueue rate since
    the previous observation, ``shed_delta`` the requests shed since then.
    Latency percentiles pool every replica's completed requests and are
    ``0.0`` until the first request completes.
    """

    queue_depth: int = 0
    arrival_rate_rps: float = 0.0
    completed_requests: int = 0
    enqueued_requests: int = 0
    p50_latency_ms: float = 0.0
    p99_latency_ms: float = 0.0
    mean_batch_size: float = 0.0
    shed_total: int = 0
    shed_delta: int = 0
    alive_replicas: int = 1
    elapsed_s: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


class ControlPolicy:
    """Maps one observation to a (possibly empty) knob proposal.

    ``propose`` returns a dict keyed by knob name (``max_batch``,
    ``encode_batch_size``, ``queue_depth_high_water``);
    values are *targets*, which the controller clamps into the configured
    bounds and damps before applying.  Policies must be deterministic
    functions of their arguments.
    """

    name = "abstract"

    def propose(
        self,
        signals: ControlSignals,
        knobs: Mapping[str, Any],
        bounds: TuningConfig,
    ) -> Dict[str, float]:
        """Propose target values for any subset of the tunable knobs."""
        raise NotImplementedError


class StaticPolicy(ControlPolicy):
    """Never proposes a change: the pre-control-plane behaviour."""

    name = "static"

    def propose(
        self,
        signals: ControlSignals,
        knobs: Mapping[str, Any],
        bounds: TuningConfig,
    ) -> Dict[str, float]:
        return {}


class DepthProportionalPolicy(ControlPolicy):
    """AIMD batch sizing with a capacity-tracking shed threshold.

    *Pressure* is the pending depth over the current batch size -- how many
    full flushes are already queued.  At or above ``high_pressure`` (or
    whenever requests were shed since the last look) the batch size grows
    additively by ``grow_step``; at or below ``low_pressure`` it shrinks
    multiplicatively by ``shrink_factor`` -- the classic AIMD asymmetry, so
    the policy reacts fast to overload and relaxes gently.  Between the two
    thresholds the batch size holds: that dead band is the hysteresis that
    keeps the knob from thrashing around a noisy operating point.

    The encode chunk follows
    the batch size so one flush is one stacked sweep, and the shed threshold
    -- when shedding is configured at all -- tracks ``hw_batches`` flushes'
    worth of requests, tying admission to service capacity.
    """

    name = "depth-proportional"

    def __init__(
        self,
        grow_step: int = 8,
        shrink_factor: float = 0.5,
        high_pressure: float = 1.0,
        low_pressure: float = 0.25,
        hw_batches: int = 8,
    ) -> None:
        if grow_step < 1:
            raise ControlError(f"grow_step must be >= 1, got {grow_step}")
        if not 0.0 < shrink_factor < 1.0:
            raise ControlError(
                f"shrink_factor must be in (0, 1), got {shrink_factor}"
            )
        if low_pressure < 0 or high_pressure <= low_pressure:
            raise ControlError(
                "pressure thresholds must satisfy 0 <= low < high, got "
                f"low={low_pressure}, high={high_pressure}"
            )
        if hw_batches < 1:
            raise ControlError(f"hw_batches must be >= 1, got {hw_batches}")
        self.grow_step = int(grow_step)
        self.shrink_factor = float(shrink_factor)
        self.high_pressure = float(high_pressure)
        self.low_pressure = float(low_pressure)
        self.hw_batches = int(hw_batches)

    def propose(
        self,
        signals: ControlSignals,
        knobs: Mapping[str, Any],
        bounds: TuningConfig,
    ) -> Dict[str, float]:
        current_batch = max(1, int(knobs["max_batch"]))
        pressure = signals.queue_depth / current_batch
        out: Dict[str, float] = {}
        target_batch = current_batch
        if pressure >= self.high_pressure or signals.shed_delta > 0:
            target_batch = current_batch + self.grow_step
        elif pressure <= self.low_pressure:
            target_batch = int(current_batch * self.shrink_factor)
        if target_batch != current_batch:
            out["max_batch"] = target_batch
            out["encode_batch_size"] = target_batch
        if knobs.get("queue_depth_high_water") is not None:
            out["queue_depth_high_water"] = self.hw_batches * max(
                bounds.min_batch, target_batch
            )
        return out


CONTROL_POLICIES = {
    StaticPolicy.name: StaticPolicy,
    DepthProportionalPolicy.name: DepthProportionalPolicy,
}


def make_control_policy(policy: "str | ControlPolicy") -> ControlPolicy:
    """Resolve a policy instance from a registry name (or pass one through)."""
    if isinstance(policy, ControlPolicy):
        return policy
    try:
        return CONTROL_POLICIES[policy]()
    except KeyError:
        raise ControlError(
            f"unknown control policy {policy!r}; "
            f"expected one of {sorted(CONTROL_POLICIES)}"
        ) from None
