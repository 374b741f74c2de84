"""Observability demo: serve a hot-key stream and scrape it over HTTP.

Walks the telemetry story of the serving layer:

1. fit a Nystrom-backed :class:`repro.core.QuantumKernelInferenceEngine`
   and serve a hot-key stream through ``repro.serve``;
2. attach the export surface with ``serve(..., telemetry=True)`` (which
   calls :func:`repro.telemetry.attach_endpoint` on the serving queue) --
   one daemon-thread HTTP server publishing ``/metrics`` (Prometheus 0.0.4
   text) and ``/health`` (is the queue up?);
3. scrape both routes like a monitoring agent would, print a selection of
   the scraped families, and print the request-latency and batch-size
   histograms (count and cumulative buckets) from the parsed scrape.

Telemetry is pull-model: the collectors run only when something scrapes,
and predictions are byte-identical with or without the endpoint.

Run with:  python examples/observability_endpoint.py [--requests 256]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from urllib.request import urlopen

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.approx import NystroemConfig
from repro.config import AnsatzConfig, ServingConfig
from repro.core import QuantumKernelInferenceEngine
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like
from repro.serving import serve
from repro.telemetry import parse_prometheus_text

SHOWN_FAMILIES = (
    "repro_serving_requests_total",
    "repro_serving_memo_hits_total",
    "repro_store_hits_total",
    "repro_store_misses_total",
    "repro_encode_batches_total",
    "repro_backend_simulations_total",
)

HISTOGRAMS = (
    ("repro_serving_request_latency_seconds", "request latency (s)"),
    ("repro_serving_batch_size", "batch size (rows)"),
)


def print_histogram(families, name: str, title: str) -> None:
    """Print one scraped histogram: its count, then its cumulative buckets."""
    samples = families[name]["samples"]
    count = sum(value for sample, _, value in samples if sample == name + "_count")
    print(f"\n--- {title}: {name} (count {count:g}) ---")
    for sample, labels, value in samples:
        if sample == name + "_bucket":
            print(f"  le={labels['le']:>8}  {value:g}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--features", type=int, default=6)
    parser.add_argument("--train-size", type=int, default=96)
    parser.add_argument("--landmarks", type=int, default=24)
    parser.add_argument("--requests", type=int, default=256)
    parser.add_argument("--unique", type=int, default=48)
    parser.add_argument("--max-batch", type=int, default=16)
    args = parser.parse_args()

    data = balanced_subsample(
        generate_elliptic_like(
            DatasetSpec(
                num_samples=6 * args.train_size,
                num_features=args.features,
                positive_fraction=0.4,
                seed=7,
            )
        ),
        args.train_size,
        seed=3,
    )
    ansatz = AnsatzConfig(
        num_features=args.features, interaction_distance=1, layers=2, gamma=0.5
    )
    engine = QuantumKernelInferenceEngine(
        ansatz, approximation=NystroemConfig(num_landmarks=args.landmarks, seed=0)
    )
    engine.fit(data.features, data.labels)

    rng = np.random.default_rng(5)
    unique = rng.normal(size=(args.unique, args.features))
    weights = 1.0 / np.arange(1, args.unique + 1)
    stream = unique[
        rng.choice(args.unique, size=args.requests, p=weights / weights.sum())
    ]

    handle = serve(engine, ServingConfig(max_batch=args.max_batch), telemetry=True)
    try:
        print(f"telemetry endpoint: {handle.url}")
        futures = handle.submit_many(stream)
        [f.result(timeout=600) for f in futures]

        # Scrape like Prometheus would.
        body = urlopen(handle.url + "/metrics").read().decode("utf-8")
        print(f"\n--- /metrics ({len(body.splitlines())} lines), selection ---")
        for line in body.splitlines():
            if line.startswith(SHOWN_FAMILIES):
                print(f"  {line}")
        families = parse_prometheus_text(body)
        for name, title in HISTOGRAMS:
            print_histogram(families, name, title)

        health = json.loads(
            urlopen(handle.url + "/health").read().decode("utf-8")
        )
        print(f"\n--- /health ---\n  {health}")
    finally:
        handle.close()

if __name__ == "__main__":
    main()
