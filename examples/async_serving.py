"""Async serving demo: coalesced, memoised classification of a request stream.

Builds the full serving stack introduced by the serving layer:

1. fit a Nystrom-backed :class:`repro.core.QuantumKernelInferenceEngine`
   (training cost ``O(n m)`` engine pairs);
2. stand the service up with one call -- ``repro.serve(engine, config)``
   returns a :class:`repro.serving.ServingHandle` whose replica queue
   flushes whatever is pending, up to ``max_batch`` requests, as one
   kernel-row plan against the cached landmark states whenever it is idle
   (requests that arrive during a flush form the next batch);
3. push a hot-key request stream through both the handle and the
   one-at-a-time baseline, verify the predictions are byte-identical, and
   print the latency/throughput accounting the queue's
   :class:`repro.profiling.ServingMetrics` collected.

Run with:  python examples/async_serving.py [--requests 512] [--max-batch 32]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

import repro
from repro.approx import NystroemConfig
from repro.config import AnsatzConfig, ServingConfig, TuningConfig
from repro.core import QuantumKernelInferenceEngine
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like
from repro.profiling import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--features", type=int, default=6)
    parser.add_argument("--train-size", type=int, default=120)
    parser.add_argument("--landmarks", type=int, default=32)
    parser.add_argument("--requests", type=int, default=512)
    parser.add_argument("--unique", type=int, default=48)
    parser.add_argument("--max-batch", type=int, default=32)
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
        ansatz,
        approximation=NystroemConfig(num_landmarks=args.landmarks, seed=0),
    )
    print(f"fitting Nystrom model (n={args.train_size}, m={args.landmarks}) ...")
    engine.fit(data.features, data.labels)

    rng = np.random.default_rng(5)
    unique = rng.normal(size=(args.unique, args.features))
    weights = 1.0 / np.arange(1, args.unique + 1)
    weights /= weights.sum()
    stream = unique[rng.choice(args.unique, size=args.requests, p=weights)]

    baseline_clf = engine.streaming_classifier()
    start = time.perf_counter()
    baseline = np.concatenate(
        [
            baseline_clf.classify(stream[i : i + 1]).decision_values
            for i in range(len(stream))
        ]
    )
    baseline_s = time.perf_counter() - start

    config = ServingConfig(tuning=TuningConfig(max_batch=args.max_batch))
    handle = repro.serve(engine, config)
    queue = handle.router.queues[0]
    start = time.perf_counter()
    futures = handle.submit_many(stream)
    results = [f.result(timeout=600) for f in futures]
    queue_s = time.perf_counter() - start
    snapshot = queue.metrics.to_dict()
    memo_hits = queue.memo_hits
    handle.close()

    decisions = np.array([r.decision_value for r in results])
    identical = np.array_equal(decisions, baseline)

    rows = [
        {
            "mode": "one-at-a-time",
            "wall_s": baseline_s,
            "req_per_s": len(stream) / baseline_s,
            "p50_ms": "-",
            "p99_ms": "-",
        },
        {
            "mode": f"queue (batch={args.max_batch})",
            "wall_s": queue_s,
            "req_per_s": len(stream) / queue_s,
            "p50_ms": snapshot["p50_latency_s"] * 1e3,
            "p99_ms": snapshot["p99_latency_s"] * 1e3,
        },
    ]
    print()
    print(format_table(rows, title="serving modes"))
    print()
    print(
        f"coalesced into {snapshot['total_batches']} batches "
        f"(mean size {snapshot['mean_batch_size']:.1f}), "
        f"memo hits {memo_hits}, "
        f"queue depth high-water {snapshot['queue_depth_high_water']}"
    )
    print(f"speedup: {baseline_s / queue_s:.2f}x, byte-identical: {identical}")
    if not identical:
        raise SystemExit("serving equivalence violated!")


if __name__ == "__main__":
    main()
