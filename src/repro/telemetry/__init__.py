"""Unified telemetry: metrics registry, request tracing, export endpoint.

The three layers compose but stand alone:

* :mod:`repro.telemetry.registry` -- Counter / Gauge / Histogram families
  with labels, pull-model collectors, deterministic snapshots;
* :mod:`repro.telemetry.tracing` -- the global :data:`TRACER` (disabled by
  default, zero-cost when off), spans with parent/child links, JSON dumps
  and text flamegraphs;
* :mod:`repro.telemetry.prometheus` / :mod:`repro.telemetry.export` -- text
  exposition rendering, a strict parser, and the stdlib HTTP endpoint
  (``/metrics``, ``/health``, ``/traces/recent``);
* :mod:`repro.telemetry.instrument` -- duck-typed ``bind_*`` helpers that
  publish the library's existing accounting silos into a registry.

Quick start against a warm serving queue::

    from repro.telemetry import TRACER, attach_endpoint

    TRACER.enable()                    # optional: span capture
    server = attach_endpoint(queue)    # binds collectors, starts HTTP
    print(server.url + "/metrics")
"""

from .export import TelemetryServer, attach_endpoint
from .instrument import (
    bind_backend,
    bind_classifier_coverage,
    bind_drift_controller,
    bind_engine,
    bind_queue,
    bind_state_store,
)
from .prometheus import parse_prometheus_text, render_prometheus
from .registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .tracing import TRACER, Span, Tracer, render_trace_text

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "render_prometheus",
    "parse_prometheus_text",
    "Span",
    "Tracer",
    "TRACER",
    "render_trace_text",
    "TelemetryServer",
    "attach_endpoint",
    "bind_queue",
    "bind_state_store",
    "bind_backend",
    "bind_engine",
    "bind_classifier_coverage",
    "bind_drift_controller",
]
