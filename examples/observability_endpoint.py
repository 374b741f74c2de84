"""Observability demo: trace a served batch and scrape it over HTTP.

Walks the full telemetry story of the serving layer:

1. fit a Nystrom-backed :class:`repro.core.QuantumKernelInferenceEngine`
   and route a hot-key stream through a :class:`repro.serving.ReplicaRouter`
   fleet;
2. attach the export surface with :func:`repro.telemetry.attach_endpoint`
   -- one daemon-thread HTTP server publishing ``/metrics`` (Prometheus
   0.0.4 text), ``/health`` (replica liveness) and ``/traces/recent``;
3. enable the global :data:`repro.telemetry.TRACER` so every request mints
   a trace whose spans follow it through wait -> flush -> score ->
   engine encode/overlap/store-write;
4. scrape all three routes like a monitoring agent would, print a selection
   of the scraped families, and render the slowest recent trace as a text
   flamegraph.

Telemetry is pull-model and disabled-by-default: with the tracer off and no
endpoint attached, the serving hot path does no telemetry work at all, and
predictions are byte-identical either way.

Run with:  python examples/observability_endpoint.py [--replicas 2]
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
from repro.config import AnsatzConfig
from repro.core import QuantumKernelInferenceEngine
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like
from repro.serving import ReplicaRouter
from repro.telemetry import TRACER, attach_endpoint, render_trace_text

SHOWN_FAMILIES = (
    "repro_serving_requests_total",
    "repro_serving_memo_hits_total",
    "repro_store_hits_total",
    "repro_store_misses_total",
    "repro_encode_batches_total",
    "repro_router_routed_total",
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--features", type=int, default=6)
    parser.add_argument("--train-size", type=int, default=96)
    parser.add_argument("--landmarks", type=int, default=24)
    parser.add_argument("--requests", type=int, default=256)
    parser.add_argument("--unique", type=int, default=48)
    parser.add_argument("--replicas", type=int, default=2)
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

    router = ReplicaRouter(
        engine.serving_payload(),
        num_replicas=args.replicas,
        policy="key-affinity",
        max_batch=args.max_batch,
    )
    TRACER.enable()
    try:
        with attach_endpoint(router) as server:
            print(f"telemetry endpoint: {server.url}")
            futures = router.submit_many(stream)
            [f.result(timeout=600) for f in futures]

            # Scrape like Prometheus would.
            body = urlopen(server.url + "/metrics").read().decode("utf-8")
            print(f"\n--- /metrics ({len(body.splitlines())} lines), selection ---")
            for line in body.splitlines():
                if line.startswith(SHOWN_FAMILIES):
                    print(f"  {line}")

            health = json.loads(
                urlopen(server.url + "/health").read().decode("utf-8")
            )
            print(f"\n--- /health ---\n  {health}")

            traces = json.loads(
                urlopen(server.url + "/traces/recent?limit=50")
                .read()
                .decode("utf-8")
            )["traces"]
            flushed = [
                t
                for t in traces
                if any(s["name"] == "serving.flush" for s in t["spans"])
            ]
            slowest = max(
                flushed,
                key=lambda t: max(s["duration_ms"] or 0.0 for s in t["spans"]),
            )
            print(f"\n--- slowest recent flushed trace ({slowest['trace_id']}) ---")
            print(render_trace_text(TRACER.trace_spans(slowest["trace_id"])))
    finally:
        TRACER.disable()
        TRACER.reset()
        router.close()


if __name__ == "__main__":
    main()
