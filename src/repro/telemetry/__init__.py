"""Unified telemetry: one metrics registry and its HTTP export endpoint.

* :mod:`repro.telemetry.registry` -- Counter / Gauge / Histogram families
  with labels, pull-model collectors, deterministic snapshots;
* :mod:`repro.telemetry.instrument` -- duck-typed ``bind_*`` helpers that
  publish the library's accounting (queue, state store, backend, engine,
  conformal coverage, drift controller) into a registry;
* :mod:`repro.telemetry.prometheus` / :mod:`repro.telemetry.export` -- text
  exposition rendering, a strict parser, and the stdlib HTTP endpoint
  (``/metrics``, ``/health``).

Quick start against a serving queue::

    from repro.telemetry import attach_endpoint

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

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "render_prometheus",
    "parse_prometheus_text",
    "TelemetryServer",
    "attach_endpoint",
    "bind_queue",
    "bind_state_store",
    "bind_backend",
    "bind_engine",
    "bind_classifier_coverage",
    "bind_drift_controller",
]
