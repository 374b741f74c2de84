"""Prometheus text exposition: rendering and a strict parser.

:func:`render_prometheus` serialises a :class:`~repro.telemetry.registry.
MetricsRegistry` into the text format (version 0.0.4) every Prometheus
scraper understands::

    # HELP repro_serving_requests_total Requests completed by the queue.
    # TYPE repro_serving_requests_total counter
    repro_serving_requests_total{replica="0"} 512

Histograms render the cumulative ``_bucket{le=...}`` series plus ``_sum``
and ``_count``, with the mandatory ``+Inf`` bucket.

:func:`parse_prometheus_text` is the inverse direction used by the CI smoke
gate and the test suite: a strict line-level parser that raises
:class:`~repro.exceptions.TelemetryError` on any malformed exposition --
unknown sample families, bad label syntax, unparseable values, histograms
whose ``_count`` disagrees with their ``+Inf`` bucket.  Serving an endpoint
that our own parser rejects fails CI before any external scraper sees it.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Tuple

from ..exceptions import TelemetryError
from .registry import Histogram, MetricsRegistry, _HistogramData, format_bound

__all__ = ["render_prometheus", "parse_prometheus_text"]

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"'
)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _unescape_label_value(value: str) -> str:
    return (
        value.replace("\\\\", "\x00")
        .replace("\\n", "\n")
        .replace('\\"', '"')
        .replace("\x00", "\\")
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _labels_text(labelnames, key, extra: "Tuple[str, str] | None" = None) -> str:
    pairs = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, key)
    ]
    if extra is not None:
        pairs.append(f'{extra[0]}="{_escape_label_value(extra[1])}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry as Prometheus text exposition (collectors run first)."""
    lines: List[str] = []
    for metric in registry.collect():
        lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
        lines.append(f"# TYPE {metric.name} {metric.metric_type}")
        for key, payload in metric.series():
            if isinstance(metric, Histogram):
                assert isinstance(payload, _HistogramData)
                cumulative = 0
                for bound, count in zip(
                    metric.upper_bounds, payload.bucket_counts
                ):
                    cumulative += count
                    labels = _labels_text(
                        metric.labelnames, key, ("le", format_bound(bound))
                    )
                    lines.append(f"{metric.name}_bucket{labels} {cumulative}")
                labels = _labels_text(metric.labelnames, key, ("le", "+Inf"))
                lines.append(f"{metric.name}_bucket{labels} {payload.count}")
                labels = _labels_text(metric.labelnames, key)
                lines.append(
                    f"{metric.name}_sum{labels} {_format_value(payload.total)}"
                )
                lines.append(f"{metric.name}_count{labels} {payload.count}")
            else:
                labels = _labels_text(metric.labelnames, key)
                lines.append(
                    f"{metric.name}{labels} {_format_value(float(payload))}"
                )
    return "\n".join(lines) + "\n"


def _parse_value(text: str, context: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    if text == "NaN":
        return float("nan")
    try:
        return float(text)
    except ValueError:
        raise TelemetryError(f"unparseable sample value {text!r} in {context}") from None


def _parse_labels(text: str, context: str) -> Dict[str, str]:
    if not text:
        return {}
    labels: Dict[str, str] = {}
    remainder = text
    while remainder:
        match = _LABEL_PAIR_RE.match(remainder)
        if match is None:
            raise TelemetryError(f"malformed label block {text!r} in {context}")
        labels[match.group(1)] = _unescape_label_value(match.group(2))
        remainder = remainder[match.end() :]
        if remainder.startswith(","):
            remainder = remainder[1:]
        elif remainder:
            raise TelemetryError(f"malformed label block {text!r} in {context}")
    return labels


def parse_prometheus_text(text: str) -> Dict[str, Dict]:
    """Parse (and validate) a text exposition into family dictionaries.

    Returns ``{family: {"type": ..., "help": ..., "samples": [(name,
    labels, value), ...]}}``.  Raises :class:`TelemetryError` on anything a
    strict scraper would reject: samples without a ``# TYPE`` declaration,
    malformed lines or labels, duplicate (name, labels) samples, and
    histogram families whose ``_count`` disagrees with their ``+Inf``
    bucket or lack one.
    """
    families: Dict[str, Dict] = {}
    seen_samples = set()
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        context = f"line {line_number}"
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                # Free-form comments are legal exposition.
                if line.startswith("# "):
                    continue
                raise TelemetryError(f"malformed comment at {context}: {raw!r}")
            _, kind, family = parts[:3]
            entry = families.setdefault(
                family, {"type": None, "help": None, "samples": []}
            )
            if kind == "HELP":
                entry["help"] = parts[3] if len(parts) > 3 else ""
            else:
                if len(parts) < 4 or parts[3] not in (
                    "counter",
                    "gauge",
                    "histogram",
                    "summary",
                    "untyped",
                ):
                    raise TelemetryError(
                        f"invalid TYPE declaration at {context}: {raw!r}"
                    )
                entry["type"] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise TelemetryError(f"malformed sample at {context}: {raw!r}")
        name = match.group("name")
        labels = _parse_labels(match.group("labels") or "", context)
        value = _parse_value(match.group("value"), context)
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and families.get(base, {}).get("type") == "histogram":
                family = base
                break
        if family not in families or families[family]["type"] is None:
            raise TelemetryError(
                f"sample {name!r} at {context} has no # TYPE declaration"
            )
        sample_key = (name, tuple(sorted(labels.items())))
        if sample_key in seen_samples:
            raise TelemetryError(f"duplicate sample {name!r} at {context}")
        seen_samples.add(sample_key)
        families[family]["samples"].append((name, labels, value))

    for family, entry in families.items():
        if entry["type"] is None:
            raise TelemetryError(f"family {family!r} has HELP but no TYPE")
        if entry["type"] == "histogram":
            _validate_histogram(family, entry["samples"])
    return families


def _validate_histogram(
    family: str, samples: List[Tuple[str, Dict[str, str], float]]
) -> None:
    """Each histogram series needs a ``+Inf`` bucket matching its ``_count``."""
    inf_buckets: Dict[Tuple, float] = {}
    counts: Dict[Tuple, float] = {}
    for name, labels, value in samples:
        if name == f"{family}_bucket":
            if "le" not in labels:
                raise TelemetryError(
                    f"histogram {family!r} bucket sample lacks an 'le' label"
                )
            if labels["le"] == "+Inf":
                key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
                inf_buckets[key] = value
        elif name == f"{family}_count":
            counts[tuple(sorted(labels.items()))] = value
    if set(inf_buckets) != set(counts):
        raise TelemetryError(
            f"histogram {family!r} series lack matching +Inf buckets and counts"
        )
    for key, count in counts.items():
        if inf_buckets[key] != count:
            raise TelemetryError(
                f"histogram {family!r} +Inf bucket ({inf_buckets[key]}) "
                f"disagrees with _count ({count})"
            )
