"""Unit tests for the adaptive controller's damped observe/propose/apply loop.

The controller duck-types its target, so these tests drive it with fake
queues/fleets whose signals are set directly -- every damping behaviour
(bound clamping, cooldown, dead band, the never-enable-shedding rule) is
pinned without spinning up a real serving stack.  End-to-end behaviour over
real fleets lives in ``tests/properties/test_control_metamorphic.py``.
"""

import time

import pytest

from repro.config import TuningConfig
from repro.control import (
    AdaptiveController,
    ControlDecision,
    DepthProportionalPolicy,
    StaticPolicy,
)
from repro.exceptions import ControlError
from repro.serving import QueueTuning


class FakeMetrics:
    def __init__(self):
        self.total_enqueued = 0
        self.total_requests = 0
        self.latencies = []
        self.batches = []

    def to_dict(self):
        return {
            "total_enqueued": self.total_enqueued,
            "total_requests": self.total_requests,
        }

    def latency_samples(self):
        return list(self.latencies)

    def batch_size_samples(self):
        return list(self.batches)


class FakeQueue:
    """The AsyncServingQueue surface the controller reads and writes."""

    def __init__(self, max_batch=8):
        self._tuning = QueueTuning(max_batch=max_batch)
        self.pending = 0
        self.metrics = FakeMetrics()
        self.encode_batch_size = None
        self.applied = []

    @property
    def tuning(self):
        return self._tuning

    def apply_tuning(self, **kwargs):
        self.applied.append(dict(kwargs))
        current = self._tuning
        encode = kwargs.pop("encode_batch_size", None)
        if encode is not None:
            self.encode_batch_size = int(encode)
        self._tuning = QueueTuning(
            max_batch=int(kwargs.get("max_batch") or current.max_batch),
            version=current.version + 1,
        )
        return self._tuning


class FakeFleet:
    """The ReplicaRouter surface: queues + shed threshold + shed counter."""

    def __init__(self, num_replicas=2, high_water=None, **queue_kwargs):
        self.queues = [FakeQueue(**queue_kwargs) for _ in range(num_replicas)]
        self.high_water = high_water
        self.metrics = FakeMetrics()
        self.metrics.shed_count = 0

    @property
    def alive_replicas(self):
        return list(range(len(self.queues)))

    def apply_tuning(self, **kwargs):
        return [q.apply_tuning(**kwargs) for q in self.queues]

    def set_high_water(self, value):
        self.high_water = value


BOUNDS = TuningConfig(
    min_batch=1,
    batch_ceiling=64,
    min_high_water=4,
    high_water_ceiling=256,
)


def controller(target, policy="depth-proportional", **kwargs):
    kwargs.setdefault("tuning", BOUNDS)
    kwargs.setdefault("cooldown_steps", 0)
    kwargs.setdefault("deadband", 0.0)
    return AdaptiveController(target, policy=policy, **kwargs)


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def test_constructor_validates_parameters():
    queue = FakeQueue()
    with pytest.raises(ControlError, match="cooldown_steps"):
        AdaptiveController(queue, cooldown_steps=-1)
    with pytest.raises(ControlError, match="deadband"):
        AdaptiveController(queue, deadband=-0.1)
    with pytest.raises(ControlError, match="history"):
        AdaptiveController(queue, history=0)
    with pytest.raises(ControlError, match="unknown control policy"):
        AdaptiveController(queue, policy="pid")


def test_policy_instances_are_accepted():
    ctl = AdaptiveController(FakeQueue(), policy=DepthProportionalPolicy())
    assert ctl.policy.name == "depth-proportional"


# ----------------------------------------------------------------------
# Observation
# ----------------------------------------------------------------------
def test_observe_pools_fleet_signals_and_tracks_rates():
    fleet = FakeFleet(num_replicas=2)
    fleet.queues[0].pending = 3
    fleet.queues[1].pending = 7
    fleet.queues[0].metrics.total_enqueued = 10
    fleet.queues[1].metrics.total_enqueued = 20
    fleet.queues[0].metrics.latencies = [0.010] * 9 + [0.100]
    fleet.metrics.shed_count = 2
    ctl = controller(fleet, policy="static")

    first = ctl.observe(now=100.0)
    assert first.queue_depth == 7  # deepest replica, not the sum
    assert first.enqueued_requests == 30
    assert first.arrival_rate_rps == 0.0  # no previous observation
    assert first.shed_delta == 2
    assert first.alive_replicas == 2
    assert first.p50_latency_ms == pytest.approx(10.0)
    assert first.p99_latency_ms > first.p50_latency_ms

    fleet.queues[0].metrics.total_enqueued = 40
    fleet.metrics.shed_count = 5
    second = ctl.observe(now=102.0)
    assert second.arrival_rate_rps == pytest.approx(30 / 2.0)
    assert second.shed_delta == 3
    assert second.elapsed_s == pytest.approx(2.0)


def test_current_knobs_reads_the_live_objects():
    fleet = FakeFleet(high_water=64, max_batch=4)
    ctl = controller(fleet, policy="static")
    assert ctl.current_knobs() == {
        "max_batch": 4,
        "encode_batch_size": None,
        "queue_depth_high_water": 64,
    }


# ----------------------------------------------------------------------
# The step loop: damping and application
# ----------------------------------------------------------------------
def test_static_policy_steps_are_pure_observation():
    queue = FakeQueue()
    queue.pending = 1000
    ctl = controller(queue, policy="static")
    decision = ctl.step(now=0.0)
    assert isinstance(decision, ControlDecision)
    assert decision.proposed == {}
    assert decision.applied == {}
    assert ctl.adjustment_count == 0
    assert queue.applied == []
    assert queue.tuning.version == 0


def test_depth_pressure_grows_the_batch_through_apply_tuning():
    queue = FakeQueue(max_batch=8)
    queue.pending = 16
    ctl = controller(queue)
    decision = ctl.step(now=0.0)
    assert decision.applied["max_batch"] == 16
    assert decision.applied["encode_batch_size"] == 16
    assert queue.tuning.max_batch == 16
    assert queue.encode_batch_size == 16
    assert queue.tuning.version == 1
    assert ctl.adjustment_count == len(decision.applied)


def test_adjustments_clamp_into_the_configured_bounds():
    queue = FakeQueue(max_batch=60)
    queue.pending = 120  # proposes 60 + 8 = 68, above the 64 ceiling
    ctl = controller(queue)
    decision = ctl.step(now=0.0)
    assert decision.proposed["max_batch"] == 68
    assert decision.applied["max_batch"] == 64
    assert queue.tuning.max_batch == 64


def test_cooldown_refuses_to_move_a_knob_twice_in_a_row():
    queue = FakeQueue(max_batch=8)
    queue.pending = 16
    ctl = controller(queue, cooldown_steps=2)
    first = ctl.step(now=0.0)
    assert "max_batch" in first.applied
    queue.pending = 64  # still under pressure: the policy keeps proposing
    second = ctl.step(now=1.0)
    assert "max_batch" in second.proposed
    assert "max_batch" not in second.applied  # cooldown window
    third = ctl.step(now=2.0)
    assert "max_batch" not in third.applied
    fourth = ctl.step(now=3.0)
    assert "max_batch" in fourth.applied  # window expired


def test_deadband_suppresses_subthreshold_nudges():
    fleet = FakeFleet(high_water=60, max_batch=8)
    # Hysteresis band: only the shed threshold is proposed.
    fleet.queues[0].pending = 4
    ctl = controller(fleet, deadband=0.2)
    # Proposal: 8 batches of 8 = 64 -- a 6.7% nudge from 60, under the 20%
    # dead band.
    decision = ctl.step(now=0.0)
    assert decision.proposed == {"queue_depth_high_water": 64}
    assert "queue_depth_high_water" not in decision.applied
    assert fleet.high_water == 60
    assert all(q.tuning.version == 0 for q in fleet.queues)


def test_high_water_is_never_enabled_when_unconfigured():
    fleet = FakeFleet(high_water=None, max_batch=8)
    fleet.queues[0].pending = 16
    ctl = controller(fleet)
    decision = ctl.step(now=0.0)
    assert "queue_depth_high_water" not in decision.applied
    assert fleet.high_water is None


def test_high_water_tracks_the_batch_when_configured():
    fleet = FakeFleet(high_water=64, max_batch=8)
    fleet.queues[0].pending = 16
    ctl = controller(fleet)
    decision = ctl.step(now=0.0)
    assert decision.applied["queue_depth_high_water"] == 8 * 16
    assert fleet.high_water == 128
    # The queue knobs fanned out to every replica.
    assert all(q.tuning.max_batch == 16 for q in fleet.queues)


def test_unknown_policy_knobs_never_reach_the_target():
    class RoguePolicy(StaticPolicy):
        name = "rogue"

        def propose(self, signals, knobs, bounds):
            return {"num_replicas": 99, "max_batch": 16}

    queue = FakeQueue(max_batch=8)
    ctl = controller(queue, policy=RoguePolicy())
    decision = ctl.step(now=0.0)
    assert "num_replicas" not in decision.applied
    assert decision.applied["max_batch"] == 16


# ----------------------------------------------------------------------
# Replica recommendation
# ----------------------------------------------------------------------
def test_recommends_scale_out_only_at_the_batch_ceiling():
    fleet = FakeFleet(num_replicas=2, max_batch=64)  # at BOUNDS ceiling
    fleet.queues[0].pending = 128  # pressure 2.0
    ctl = controller(fleet, policy="static")
    assert ctl.step(now=0.0).recommended_replicas == 3

    growable = FakeFleet(num_replicas=2, max_batch=8)
    growable.queues[0].pending = 16
    ctl2 = controller(growable, policy="static")
    # Batch can still grow: don't recommend replicas yet.
    assert ctl2.step(now=0.0).recommended_replicas == 2


def test_recommends_scale_out_on_shedding_and_scale_in_when_idle():
    fleet = FakeFleet(num_replicas=2, max_batch=8)
    fleet.metrics.shed_count = 4
    ctl = controller(fleet, policy="static")
    assert ctl.step(now=0.0).recommended_replicas == 3
    # Next step: no new sheds, empty queues -> scale in.
    assert ctl.step(now=1.0).recommended_replicas == 1


def test_recommendation_defaults_before_any_step():
    fleet = FakeFleet(num_replicas=3)
    assert controller(fleet).recommended_replicas == 3
    assert controller(FakeQueue()).recommended_replicas == 1


# ----------------------------------------------------------------------
# Summary and background loop
# ----------------------------------------------------------------------
def test_summary_exposes_the_dashboard_fields():
    queue = FakeQueue()
    ctl = controller(queue, policy="static")
    ctl.step(now=0.0)
    summary = ctl.summary()
    assert summary["policy"] == "static"
    assert summary["step_count"] == 1
    assert summary["adjustment_count"] == 0
    assert summary["knobs"]["max_batch"] == 8
    assert summary["recommended_replicas"] == 1


def test_decision_history_is_bounded():
    queue = FakeQueue()
    ctl = controller(queue, policy="static", history=4)
    for i in range(10):
        ctl.step(now=float(i))
    assert len(ctl.decisions) == 4
    assert ctl.decisions[-1].step == 9
    assert ctl.decisions[-1].to_dict()["policy"] == "static"


def test_background_loop_steps_and_stops_cleanly():
    queue = FakeQueue()
    ctl = controller(queue, policy="static")
    with pytest.raises(ControlError, match="interval_s"):
        ctl.start(0.0)
    ctl.start(0.005)
    with pytest.raises(ControlError, match="already running"):
        ctl.start(0.005)
    deadline = time.monotonic() + 5.0
    while ctl.step_count < 2 and time.monotonic() < deadline:
        time.sleep(0.005)
    ctl.stop()
    assert ctl.step_count >= 2
    stopped_at = ctl.step_count
    time.sleep(0.02)
    assert ctl.step_count == stopped_at  # no steps after stop
    ctl.stop()  # idempotent
