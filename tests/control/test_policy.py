"""Unit tests for the control policies: pure signals-in, proposals-out."""

import pytest

from repro.config import TuningConfig
from repro.control import (
    CONTROL_POLICIES,
    ControlSignals,
    DepthProportionalPolicy,
    StaticPolicy,
    make_control_policy,
)
from repro.exceptions import ControlError

BOUNDS = TuningConfig(max_batch=8, min_batch=1, batch_ceiling=64)


def knobs(max_batch=8, high_water=None):
    return {
        "max_batch": max_batch,
        "encode_batch_size": None,
        "queue_depth_high_water": high_water,
    }


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_resolves_all_shipped_policies():
    assert sorted(CONTROL_POLICIES) == ["depth-proportional", "static"]
    for name, cls in CONTROL_POLICIES.items():
        policy = make_control_policy(name)
        assert isinstance(policy, cls)
        assert policy.name == name


def test_registry_passes_instances_through_and_rejects_unknown():
    instance = DepthProportionalPolicy(grow_step=4)
    assert make_control_policy(instance) is instance
    with pytest.raises(ControlError, match="unknown control policy"):
        make_control_policy("pid")


# ----------------------------------------------------------------------
# Static
# ----------------------------------------------------------------------
def test_static_policy_never_proposes():
    policy = StaticPolicy()
    overloaded = ControlSignals(queue_depth=10_000, shed_delta=50)
    assert policy.propose(overloaded, knobs(), BOUNDS) == {}


# ----------------------------------------------------------------------
# Depth-proportional AIMD
# ----------------------------------------------------------------------
def test_depth_policy_validates_parameters():
    with pytest.raises(ControlError, match="grow_step"):
        DepthProportionalPolicy(grow_step=0)
    with pytest.raises(ControlError, match="shrink_factor"):
        DepthProportionalPolicy(shrink_factor=1.0)
    with pytest.raises(ControlError, match="pressure thresholds"):
        DepthProportionalPolicy(low_pressure=1.0, high_pressure=0.5)
    with pytest.raises(ControlError, match="hw_batches"):
        DepthProportionalPolicy(hw_batches=0)


def test_depth_policy_grows_additively_under_pressure():
    policy = DepthProportionalPolicy(grow_step=8)
    # Pressure = 16 / 8 = 2.0 >= high threshold: grow.
    out = policy.propose(ControlSignals(queue_depth=16), knobs(8), BOUNDS)
    assert out["max_batch"] == 16
    assert out["encode_batch_size"] == 16
    # The coalescer is work-conserving: there is no wait knob to propose.
    assert set(out) == {"max_batch", "encode_batch_size"}


def test_depth_policy_grows_on_shedding_even_when_shallow():
    policy = DepthProportionalPolicy(grow_step=8)
    out = policy.propose(
        ControlSignals(queue_depth=0, shed_delta=3), knobs(8), BOUNDS
    )
    assert out["max_batch"] == 16


def test_depth_policy_shrinks_multiplicatively_when_idle():
    policy = DepthProportionalPolicy(shrink_factor=0.5)
    out = policy.propose(ControlSignals(queue_depth=0), knobs(32), BOUNDS)
    assert out["max_batch"] == 16
    assert out["encode_batch_size"] == 16


def test_depth_policy_holds_in_the_hysteresis_band():
    policy = DepthProportionalPolicy(low_pressure=0.25, high_pressure=1.0)
    # Pressure = 4 / 8 = 0.5: inside the dead band, batch holds.
    out = policy.propose(ControlSignals(queue_depth=4), knobs(8), BOUNDS)
    assert "max_batch" not in out
    assert "encode_batch_size" not in out
    # Only the configured shed threshold still tracks the held batch size.
    assert out == {}
    held = policy.propose(
        ControlSignals(queue_depth=4), knobs(8, high_water=32), BOUNDS
    )
    assert held == {"queue_depth_high_water": 8 * 8}


def test_depth_policy_tracks_high_water_only_when_configured():
    policy = DepthProportionalPolicy(grow_step=8, hw_batches=8)
    unconfigured = policy.propose(
        ControlSignals(queue_depth=16), knobs(8, high_water=None), BOUNDS
    )
    assert "queue_depth_high_water" not in unconfigured
    configured = policy.propose(
        ControlSignals(queue_depth=16), knobs(8, high_water=64), BOUNDS
    )
    assert configured["queue_depth_high_water"] == 8 * 16

