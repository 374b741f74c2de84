"""The closed loop: observe the serving tier, damp a policy, apply knobs.

:class:`AdaptiveController` wraps one serving target -- a single
:class:`~repro.serving.AsyncServingQueue` or a whole
:class:`~repro.serving.ReplicaRouter` fleet, duck-typed by the presence of
``queues`` -- and on every :meth:`step`:

1. **observes** live signals (pending depth, arrival rate since the last
   step, pooled p50/p99, mean flushed batch size, shed count);
2. asks its :class:`~repro.control.ControlPolicy` for knob **proposals**;
3. **damps** them -- clamps into the :class:`~repro.config.TuningConfig`
   bounds, drops sub-dead-band nudges, and refuses to move a knob again
   within its cooldown window, so knobs never thrash;
4. **applies** what survives through the target's versioned
   ``apply_tuning`` / ``set_high_water`` surface and records one
   :class:`ControlDecision` (also emitted as a ``control.step`` trace span).

The loop is driven either explicitly -- a caller invokes :meth:`step` at
deterministic points in its submission schedule -- or by the optional
:meth:`start` background thread.  For a fleet target the controller also
publishes a **replica-count recommendation** (scale out when the queue runs
multiple ceiling-sized batches deep, scale in when the fleet idles); it
never spawns replicas itself, matching the shed threshold's advisory
spirit: the control plane steers, the serving tier enforces.

The controller adjusts *when and how much* work is batched, never *what*
any request computes -- predictions are byte-identical with the loop on or
off, which ``tests/properties/test_control_metamorphic.py`` pins.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

import numpy as np

from ..config import TuningConfig
from ..exceptions import ControlError
from ..telemetry.tracing import TRACER
from .policy import ControlPolicy, ControlSignals, make_control_policy

__all__ = ["ControlDecision", "AdaptiveController"]

#: Knobs applied through the queues' ``apply_tuning`` surface.
_QUEUE_KNOBS = ("max_batch", "encode_batch_size")


@dataclass(frozen=True)
class ControlDecision:
    """One control step: what was seen, proposed, and actually applied.

    ``applied`` is the post-damping subset of ``proposed`` (clamped values;
    empty for a static policy or when every proposal was suppressed), and
    ``recommended_replicas`` the advisory fleet size for router targets.
    """

    step: int
    policy: str
    signals: ControlSignals
    proposed: Dict[str, float] = field(default_factory=dict)
    applied: Dict[str, float] = field(default_factory=dict)
    recommended_replicas: int = 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "step": self.step,
            "policy": self.policy,
            "signals": self.signals.to_dict(),
            "proposed": dict(self.proposed),
            "applied": dict(self.applied),
            "recommended_replicas": self.recommended_replicas,
        }


class AdaptiveController:
    """Damped closed-loop tuner over one queue or one replica fleet.

    Parameters
    ----------
    target:
        Anything with the :class:`~repro.serving.AsyncServingQueue` surface
        (``tuning``, ``apply_tuning``, ``pending``, ``metrics``); a target
        that additionally has ``queues`` is treated as a
        :class:`~repro.serving.ReplicaRouter` fleet, whose shed threshold
        and replica recommendation the controller also manages.
    policy:
        Registry name (``"static"``, ``"depth-proportional"``) or a
        :class:`~repro.control.ControlPolicy` instance.
    tuning:
        The :class:`~repro.config.TuningConfig` whose bound fields clamp
        every adjustment.  Defaults to ``TuningConfig()``.
    cooldown_steps:
        A knob adjusted at step ``s`` may not move again before step
        ``s + cooldown_steps + 1`` (the AIMD damper's refractory period).
    deadband:
        Minimum relative change worth applying (e.g. ``0.1`` suppresses
        nudges under 10%), the second anti-thrash guard.
    history:
        How many :class:`ControlDecision` records to retain.
    """

    def __init__(
        self,
        target,
        policy: "str | ControlPolicy" = "static",
        tuning: TuningConfig | None = None,
        cooldown_steps: int = 2,
        deadband: float = 0.1,
        history: int = 256,
    ) -> None:
        if cooldown_steps < 0:
            raise ControlError(
                f"cooldown_steps must be >= 0, got {cooldown_steps}"
            )
        if deadband < 0:
            raise ControlError(f"deadband must be >= 0, got {deadband}")
        if history < 1:
            raise ControlError(f"history must be >= 1, got {history}")
        self.target = target
        self.policy = make_control_policy(policy)
        self.bounds = tuning if tuning is not None else TuningConfig()
        self.cooldown_steps = int(cooldown_steps)
        self.deadband = float(deadband)
        self.step_count = 0
        self.adjustment_count = 0
        self.decisions: Deque[ControlDecision] = deque(maxlen=int(history))
        self._is_fleet = hasattr(target, "queues")
        self._last_adjust_step: Dict[str, int] = {}
        self._last_enqueued = 0
        self._last_shed = 0
        self._last_observed_at: Optional[float] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._loop_stop = threading.Event()

    # ------------------------------------------------------------------
    def _queues(self) -> List:
        if self._is_fleet:
            alive = set(self.target.alive_replicas)
            return [
                q for i, q in enumerate(self.target.queues) if i in alive
            ]
        return [self.target]

    # ------------------------------------------------------------------
    def observe(self, now: float | None = None) -> ControlSignals:
        """Read the target's live signals (and advance the rate trackers)."""
        now = time.perf_counter() if now is None else float(now)
        queues = self._queues()
        depth = max((q.pending for q in queues), default=0)
        enqueued = 0
        completed = 0
        latencies: List[float] = []
        batch_sizes: List[int] = []
        for queue in queues:
            snapshot = queue.metrics.to_dict()
            enqueued += int(snapshot.get("total_enqueued", 0))
            completed += int(snapshot.get("total_requests", 0))
            latencies.extend(queue.metrics.latency_samples())
            batch_sizes.extend(queue.metrics.batch_size_samples())
        if latencies:
            lat = np.asarray(latencies)
            p50 = float(np.percentile(lat, 50.0)) * 1000.0
            p99 = float(np.percentile(lat, 99.0)) * 1000.0
        else:
            p50 = p99 = 0.0
        shed_total = (
            int(self.target.metrics.shed_count) if self._is_fleet else 0
        )
        elapsed = (
            now - self._last_observed_at
            if self._last_observed_at is not None
            else 0.0
        )
        arrival = (
            (enqueued - self._last_enqueued) / elapsed if elapsed > 0 else 0.0
        )
        signals = ControlSignals(
            queue_depth=depth,
            arrival_rate_rps=max(0.0, arrival),
            completed_requests=completed,
            enqueued_requests=enqueued,
            p50_latency_ms=p50,
            p99_latency_ms=p99,
            mean_batch_size=float(np.mean(batch_sizes)) if batch_sizes else 0.0,
            shed_total=shed_total,
            shed_delta=max(0, shed_total - self._last_shed),
            alive_replicas=(
                len(self.target.alive_replicas) if self._is_fleet else 1
            ),
            elapsed_s=max(0.0, elapsed),
        )
        self._last_enqueued = enqueued
        self._last_shed = shed_total
        self._last_observed_at = now
        return signals

    def current_knobs(self) -> Dict[str, Any]:
        """The effective knob values, read from the live serving objects."""
        queue = self._queues()[0]
        tuning = queue.tuning
        return {
            "max_batch": tuning.max_batch,
            "encode_batch_size": queue.encode_batch_size,
            "queue_depth_high_water": (
                self.target.high_water if self._is_fleet else None
            ),
        }

    # ------------------------------------------------------------------
    def _clamp(self, knob: str, value: float) -> Optional[float]:
        bounds = self.bounds
        if knob in ("max_batch", "encode_batch_size"):
            return int(
                min(bounds.batch_ceiling, max(bounds.min_batch, round(value)))
            )
        if knob == "queue_depth_high_water":
            return int(
                min(
                    bounds.high_water_ceiling,
                    max(bounds.min_high_water, round(value)),
                )
            )
        return None  # unknown knob: a policy bug never reaches the fleet

    def _suppressed(self, knob: str, current, value) -> bool:
        """Damping: cooldown window and relative dead band."""
        last = self._last_adjust_step.get(knob)
        if last is not None and self.step_count - last <= self.cooldown_steps:
            return True
        if isinstance(current, (int, float)) and current:
            if abs(value - current) / abs(current) < self.deadband:
                return True
        return False

    def _apply(self, applied: Dict[str, float]) -> None:
        queue_knobs = {k: v for k, v in applied.items() if k in _QUEUE_KNOBS}
        if queue_knobs:
            # Queue and router expose the same versioned surface; a fleet
            # target fans the change out across its alive replicas itself.
            self.target.apply_tuning(**queue_knobs)
        if "queue_depth_high_water" in applied and self._is_fleet:
            self.target.set_high_water(int(applied["queue_depth_high_water"]))

    def _recommend_replicas(
        self, signals: ControlSignals, knobs: Dict[str, Any]
    ) -> int:
        if not self._is_fleet:
            return 1
        alive = max(1, signals.alive_replicas)
        pressure = signals.queue_depth / max(1, int(knobs["max_batch"]))
        at_ceiling = int(knobs["max_batch"]) >= self.bounds.batch_ceiling
        if (pressure >= 2.0 and at_ceiling) or signals.shed_delta > 0:
            return alive + 1
        if pressure <= 0.05 and signals.queue_depth == 0 and alive > 1:
            return alive - 1
        return alive

    # ------------------------------------------------------------------
    def step(self, now: float | None = None) -> ControlDecision:
        """Run one observe -> propose -> damp -> apply cycle.

        Deterministically driven loops (the metamorphic suite) call this at
        fixed points in their submission schedule; the
        background thread calls it on a wall-clock interval.  Returns the
        recorded decision.
        """
        with TRACER.span("control.step") as span:
            signals = self.observe(now)
            knobs = self.current_knobs()
            proposed = self.policy.propose(signals, knobs, self.bounds)
            applied: Dict[str, float] = {}
            for knob, raw in proposed.items():
                value = self._clamp(knob, raw)
                if value is None:
                    continue
                current = knobs.get(knob)
                if knob == "queue_depth_high_water" and current is None:
                    # Never *enable* shedding the operator didn't configure.
                    continue
                if current is not None and value == current:
                    continue
                if self._suppressed(knob, current, value):
                    continue
                applied[knob] = value
            if applied:
                self._apply(applied)
                self.adjustment_count += len(applied)
                for knob in applied:
                    self._last_adjust_step[knob] = self.step_count
            decision = ControlDecision(
                step=self.step_count,
                policy=self.policy.name,
                signals=signals,
                proposed=dict(proposed),
                applied=applied,
                recommended_replicas=self._recommend_replicas(signals, knobs),
            )
            self.step_count += 1
            self.decisions.append(decision)
            if span is not None:
                span.set_attribute("policy", self.policy.name)
                span.set_attribute("queue_depth", signals.queue_depth)
                span.set_attribute(
                    "applied", ",".join(sorted(applied)) if applied else "none"
                )
            return decision

    # ------------------------------------------------------------------
    @property
    def recommended_replicas(self) -> int:
        """The latest decision's advisory fleet size (alive count before any step)."""
        if self.decisions:
            return self.decisions[-1].recommended_replicas
        return len(self.target.alive_replicas) if self._is_fleet else 1

    def summary(self) -> Dict[str, Any]:
        """Dashboard snapshot: policy, counters, knobs, recommendation."""
        return {
            "policy": self.policy.name,
            "step_count": self.step_count,
            "adjustment_count": self.adjustment_count,
            "knobs": self.current_knobs(),
            "recommended_replicas": self.recommended_replicas,
        }

    # ------------------------------------------------------------------
    def start(self, interval_s: float) -> None:
        """Drive :meth:`step` from a daemon thread every ``interval_s``."""
        if interval_s <= 0:
            raise ControlError(f"interval_s must be > 0, got {interval_s}")
        if self._loop_thread is not None:
            raise ControlError("controller loop is already running")
        self._loop_stop.clear()

        def run() -> None:
            while not self._loop_stop.wait(interval_s):
                try:
                    self.step()
                except Exception:
                    # The serving tier owns failure semantics; a control
                    # hiccup (e.g. a mid-close race) must never kill the loop.
                    continue

        self._loop_thread = threading.Thread(
            target=run, name="adaptive-controller", daemon=True
        )
        self._loop_thread.start()

    def stop(self) -> None:
        """Stop the background loop (idempotent; no-op when never started)."""
        if self._loop_thread is None:
            return
        self._loop_stop.set()
        self._loop_thread.join()
        self._loop_thread = None
