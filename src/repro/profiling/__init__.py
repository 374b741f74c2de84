"""Instrumentation shared by the benchmark harness: timers, records, tables.

Also the serving queue's accounting (:class:`ServingMetrics`): cheap
thread-safe counters on the hot path, which
:mod:`repro.telemetry.instrument` binds into a
:class:`~repro.telemetry.MetricsRegistry` through pull-model collectors, so
every value is scrapeable through the Prometheus endpoint.  The registry
primitives themselves live in :mod:`repro.telemetry`.
"""

from .timers import Timer, timed
from .records import RunRecord, RecordCollection
from .reporting import format_table, summarize_samples, quartiles
from .serving import ServingMetrics

__all__ = [
    "Timer",
    "timed",
    "RunRecord",
    "RecordCollection",
    "format_table",
    "summarize_samples",
    "quartiles",
    "ServingMetrics",
]
