"""Unit tests for the metrics registry and the Prometheus text round trip."""

import math

import pytest

from repro.exceptions import TelemetryError
from repro.telemetry import (
    MetricsRegistry,
    parse_prometheus_text,
    render_prometheus,
)


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
def test_counter_increments_and_rejects_decrease():
    registry = MetricsRegistry()
    counter = registry.counter("repro_test_total", "A test counter.")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(TelemetryError):
        counter.inc(-1)
    with pytest.raises(TelemetryError):
        counter.set_total(-3)


def test_gauge_moves_both_ways():
    registry = MetricsRegistry()
    gauge = registry.gauge("repro_test_depth", "A test gauge.")
    gauge.set(7)
    gauge.dec(2.5)
    gauge.inc()
    assert gauge.value == pytest.approx(5.5)


def test_labeled_series_are_independent():
    registry = MetricsRegistry()
    counter = registry.counter("repro_routed_total", "Routed.", ("replica",))
    counter.labels(replica="0").inc(3)
    counter.labels(replica="1").inc(1)
    assert counter.labels(replica="0").value == 3
    assert counter.labels(replica="1").value == 1
    with pytest.raises(TelemetryError):
        counter.labels(shard="0")  # wrong label name
    with pytest.raises(TelemetryError):
        counter.inc()  # unlabeled use of a labeled family


def test_histogram_buckets_are_cumulative():
    registry = MetricsRegistry()
    hist = registry.histogram(
        "repro_test_sizes", "Sizes.", buckets=(1.0, 2.0, 4.0)
    )
    for value in (0.5, 1.0, 3.0, 100.0):
        hist.observe(value)
    series = dict(registry.to_dict()["repro_test_sizes"]["series"][0])
    assert series["count"] == 4
    assert series["sum"] == pytest.approx(104.5)
    assert series["buckets"] == {"1": 2, "2": 2, "4": 3, "+Inf": 4}


def test_histogram_replace_rebuilds_from_samples():
    registry = MetricsRegistry()
    hist = registry.histogram("repro_test_lat", "Latency.", buckets=(1.0,))
    hist.observe(0.5)
    hist.replace([2.0, 3.0])
    series = dict(registry.to_dict()["repro_test_lat"]["series"][0])
    assert series["count"] == 2
    assert series["buckets"]["1"] == 0


def test_histogram_validates_buckets():
    registry = MetricsRegistry()
    with pytest.raises(TelemetryError):
        registry.histogram("repro_bad", "x", buckets=())
    with pytest.raises(TelemetryError):
        registry.histogram("repro_bad2", "x", buckets=(2.0, 1.0))


def test_invalid_names_rejected():
    registry = MetricsRegistry()
    with pytest.raises(TelemetryError):
        registry.counter("9starts_with_digit", "x")
    with pytest.raises(TelemetryError):
        registry.counter("repro_ok_total", "x", ("bad-label",))


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
def test_registration_is_idempotent_but_conflicts_raise():
    registry = MetricsRegistry()
    a = registry.counter("repro_x_total", "x")
    b = registry.counter("repro_x_total", "x")
    assert a is b
    with pytest.raises(TelemetryError):
        registry.gauge("repro_x_total", "x")
    with pytest.raises(TelemetryError):
        registry.counter("repro_x_total", "x", ("replica",))


def test_named_collectors_replace_not_stack():
    registry = MetricsRegistry()
    gauge = registry.gauge("repro_pulled", "x")
    calls = []
    registry.register_collector(lambda: calls.append("old"), name="slot")
    registry.register_collector(
        lambda: (calls.append("new"), gauge.set(1)), name="slot"
    )
    registry.collect()
    assert calls == ["new"]
    registry.unregister_collector("slot")
    calls.clear()
    registry.collect()
    assert calls == []


def test_deterministic_snapshot_drops_wall_clock_families():
    registry = MetricsRegistry()
    registry.counter("repro_requests_total", "x").inc()
    registry.gauge("repro_wall_time_seconds", "x").set(1.23)
    registry.gauge("repro_throughput_rps", "x").set(50.0)
    snapshot = registry.deterministic_snapshot()
    assert "repro_requests_total" in snapshot
    assert "repro_wall_time_seconds" not in snapshot
    assert "repro_throughput_rps" not in snapshot


# ----------------------------------------------------------------------
# Prometheus text format: render + strict parse round trip
# ----------------------------------------------------------------------
def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("repro_requests_total", "Requests.", ("replica",)).labels(
        replica="0"
    ).inc(12)
    registry.gauge("repro_depth", "Depth.").set(3)
    hist = registry.histogram(
        "repro_latency_seconds", "Latency.", buckets=(0.01, 0.1)
    )
    hist.observe(0.005)
    hist.observe(0.5)
    return registry


def test_render_parse_round_trip():
    registry = _populated_registry()
    families = parse_prometheus_text(render_prometheus(registry))
    assert families["repro_requests_total"]["type"] == "counter"
    samples = {
        (name, tuple(sorted(labels.items()))): value
        for name, labels, value in families["repro_requests_total"]["samples"]
    }
    assert samples[("repro_requests_total", (("replica", "0"),))] == 12
    hist = families["repro_latency_seconds"]
    bucket_values = {
        labels["le"]: value
        for name, labels, value in hist["samples"]
        if name.endswith("_bucket")
    }
    assert bucket_values == {"0.01": 1, "0.1": 1, "+Inf": 2}


def test_label_values_escape_round_trip():
    registry = MetricsRegistry()
    ugly = 'quote " backslash \\ newline \n end'
    registry.counter("repro_escaped_total", "x", ("tag",)).labels(tag=ugly).inc()
    families = parse_prometheus_text(render_prometheus(registry))
    (_, labels, value) = families["repro_escaped_total"]["samples"][0]
    assert labels["tag"] == ugly
    assert value == 1


@pytest.mark.parametrize(
    "value, token",
    [(math.nan, "NaN"), (math.inf, "+Inf"), (-math.inf, "-Inf")],
)
def test_non_finite_gauge_values_round_trip(value, token):
    registry = MetricsRegistry()
    registry.gauge("repro_test_gauge", "A test gauge.").set(value)
    text = render_prometheus(registry)
    assert f"repro_test_gauge {token}\n" in text
    ((_, _, parsed),) = parse_prometheus_text(text)["repro_test_gauge"]["samples"]
    if math.isnan(value):
        assert math.isnan(parsed)
    else:
        assert parsed == value


@pytest.mark.parametrize(
    "text",
    [
        "repro_untyped 1\n",  # sample with no TYPE declaration
        "# TYPE repro_x counter\nrepro_x{bad= 1\n",  # malformed labels
        "# TYPE repro_x counter\nrepro_x one\n",  # unparseable value
        "# TYPE repro_x counter\nrepro_x 1\nrepro_x 2\n",  # duplicate sample
        "# TYPE repro_x wibble\n",  # invalid type
        "#HELP repro_x broken\n",  # malformed comment
        # Histogram whose +Inf bucket disagrees with _count:
        "# TYPE repro_h histogram\n"
        'repro_h_bucket{le="+Inf"} 3\nrepro_h_sum 1\nrepro_h_count 2\n',
        # Histogram with no +Inf bucket at all:
        "# TYPE repro_h histogram\n"
        'repro_h_bucket{le="1"} 2\nrepro_h_sum 1\nrepro_h_count 2\n',
    ],
)
def test_parser_rejects_malformed_exposition(text):
    with pytest.raises(TelemetryError):
        parse_prometheus_text(text)


def test_parser_accepts_free_form_comments():
    families = parse_prometheus_text(
        "# scraped by test\n# TYPE repro_x counter\nrepro_x 1\n"
    )
    assert families["repro_x"]["samples"][0][2] == 1
