"""Serving benchmark: batch-coalescing queue vs one-at-a-time classification.

Simulates a traffic-facing deployment of the Nystrom streaming classifier: a
hot-key (Zipf-like) request stream -- the shape real serving traffic has --
is pushed through

* the baseline: ``StreamingNystroemClassifier.classify`` one request at a
  time (what a naive request handler does), and
* :class:`repro.serving.AsyncServingQueue` at several ``max_batch`` settings
  (requests coalesce into one kernel-row plan per flush; the response memo
  answers repeated hot keys without touching the engine).

Every mode gets a **freshly fitted** engine (identical seeds, so identical
models) and the same request stream, and must produce **byte-identical**
decision values -- the serving layer's metamorphic contract.  The script
writes ``BENCH_serving.json`` with throughput and p50/p99 latency per mode
and exits non-zero when the acceptance contract breaks:

* the ``max_batch=32`` queue must reach at least ``--min-speedup`` (2x) the
  baseline throughput;
* every queue mode must reproduce the baseline predictions exactly.

``--scenario persistence`` benchmarks the durable tier instead: the same
stream is served twice through a queue whose engine store is a
:class:`repro.serving.PersistentStateStore` -- once **cold** (every unique
row is simulated, then snapshotted) and once **warm** (a simulated process
restart: a fresh store over the same root, ``warm_up()`` prefetching the
snapshot before the first request).  The scenario writes
``BENCH_persistence.json`` and fails unless the warm restart (a) reproduces
the cold decisions byte-identically, (b) performs zero circuit simulations,
and (c) cuts p99 latency to at most ``--max-warm-p99-ratio`` of the cold run.

Run with:  python benchmarks/bench_serving.py [--out BENCH_serving.json]
           python benchmarks/bench_serving.py --scenario persistence [--out BENCH_persistence.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import __version__
from repro.approx import NystroemConfig, StreamingNystroemClassifier
from repro.config import AnsatzConfig
from repro.core import QuantumKernelInferenceEngine
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like
from repro.serving import AsyncServingQueue, PersistentStateStore
from repro.telemetry import MetricsRegistry, bind_queue, render_prometheus


def maybe_bind_queue(args, queue, replica: str) -> None:
    """Publish this queue (and its engine) when ``--emit-metrics`` is on."""
    if args.metrics_registry is not None:
        bind_queue(args.metrics_registry, queue, replica=replica)


def maybe_emit_metrics(args, payload: dict) -> None:
    """Dump the bound registry: Prometheus text at the flag's path + JSON."""
    if args.metrics_registry is None:
        return
    args.emit_metrics.write_text(render_prometheus(args.metrics_registry))
    snapshot = args.metrics_registry.to_dict()
    json_path = Path(str(args.emit_metrics) + ".json")
    json_path.write_text(json.dumps(snapshot, indent=2, sort_keys=True))
    payload["telemetry"] = {
        "metrics_path": str(args.emit_metrics),
        "json_path": str(json_path),
        "families": len(snapshot),
    }
    print(f"wrote {args.emit_metrics} + {json_path} ({len(snapshot)} families)")


def build_engine(args) -> QuantumKernelInferenceEngine:
    """One freshly fitted Nystrom-backed engine (deterministic per seed)."""
    data = balanced_subsample(
        generate_elliptic_like(
            DatasetSpec(
                num_samples=6 * args.train_size,
                num_features=args.features,
                positive_fraction=0.4,
                seed=7 + args.seed,
            )
        ),
        args.train_size,
        seed=3 + args.seed,
    )
    ansatz = AnsatzConfig(
        num_features=args.features, interaction_distance=1, layers=2, gamma=0.5
    )
    engine = QuantumKernelInferenceEngine(
        ansatz,
        approximation=NystroemConfig(
            num_landmarks=args.landmarks, strategy="greedy", seed=0
        ),
    )
    engine.fit(data.features, data.labels)
    return engine


def hot_key_stream(args) -> np.ndarray:
    """Zipf-like request stream: few hot rows dominate, like real traffic."""
    rng = np.random.default_rng(5 + args.seed)
    unique = rng.normal(size=(args.unique, args.features))
    weights = 1.0 / np.arange(1, args.unique + 1)
    weights /= weights.sum()
    return unique[rng.choice(args.unique, size=args.queries, p=weights)]


def run_baseline(args, stream: np.ndarray) -> tuple[np.ndarray, dict]:
    classifier = build_engine(args).streaming_classifier()
    start = time.perf_counter()
    decisions = np.concatenate(
        [
            classifier.classify(stream[i : i + 1]).decision_values
            for i in range(len(stream))
        ]
    )
    elapsed = time.perf_counter() - start
    record = {
        "mode": "one-at-a-time",
        "max_batch": 1,
        "memoize": False,
        "wall_s": elapsed,
        "throughput_rps": len(stream) / elapsed,
    }
    return decisions, record


def run_queue(args, stream: np.ndarray, max_batch: int, memoize: bool) -> tuple[np.ndarray, dict]:
    engine = build_engine(args)
    queue = AsyncServingQueue(
        engine.streaming_classifier(buffer_size=max_batch),
        max_batch=max_batch,
        memoize=memoize,
    )
    maybe_bind_queue(args, queue, replica=f"b{max_batch}-m{int(memoize)}")
    start = time.perf_counter()
    futures = queue.submit_many(stream)
    results = [f.result(timeout=600) for f in futures]
    elapsed = time.perf_counter() - start
    queue.close()
    decisions = np.array([r.decision_value for r in results])
    snapshot = queue.metrics.to_dict()
    record = {
        "mode": "queue",
        "max_batch": max_batch,
        "memoize": memoize,
        "wall_s": elapsed,
        "throughput_rps": len(stream) / elapsed,
        "p50_latency_ms": snapshot["p50_latency_s"] * 1e3,
        "p99_latency_ms": snapshot["p99_latency_s"] * 1e3,
        "mean_batch_size": snapshot["mean_batch_size"],
        "total_batches": snapshot["total_batches"],
        "queue_depth_high_water": snapshot["queue_depth_high_water"],
        "memo_hits": queue.memo_hits,
    }
    return decisions, record


def run_durable_pass(
    args, payload_dict: dict, stream: np.ndarray, root: Path, warm: bool
) -> tuple[np.ndarray, dict, PersistentStateStore]:
    """One serving pass over a durable store rooted at ``root``.

    ``warm=False`` models first boot (empty tier, every unique row simulated);
    ``warm=True`` models a process restart (fresh store instance over the
    same root, warm-up prefetch before the first request).  The response memo
    is off so repeated keys exercise the state store, which is the tier under
    test.
    """
    store = PersistentStateStore(root)
    classifier = StreamingNystroemClassifier.from_serving_payload(
        payload_dict, store=store
    )
    store.fingerprint = classifier.feature_map.engine.fingerprint
    report = store.warm_up() if warm else None
    queue = AsyncServingQueue(
        classifier,
        max_batch=32,
        memoize=False,
    )
    maybe_bind_queue(args, queue, replica="warm" if warm else "cold")
    start = time.perf_counter()
    futures = queue.submit_many(stream)
    results = [f.result(timeout=600) for f in futures]
    elapsed = time.perf_counter() - start
    queue.close()
    decisions = np.array([r.decision_value for r in results])
    snapshot = queue.metrics.to_dict()
    stats = store.stats()
    record = {
        "mode": "warm-restart" if warm else "cold-boot",
        "wall_s": elapsed,
        "throughput_rps": len(stream) / elapsed,
        "p50_latency_ms": snapshot["p50_latency_s"] * 1e3,
        "p99_latency_ms": snapshot["p99_latency_s"] * 1e3,
        "mean_batch_size": snapshot["mean_batch_size"],
        # A store miss is exactly one circuit simulation on this path.
        "simulations": stats.misses,
        "store_hit_rate": stats.hit_rate,
        "warm_loaded_keys": report.loaded if report is not None else 0,
    }
    return decisions, record, store


def run_persistence_scenario(args) -> tuple[dict, list]:
    """Cold boot -> snapshot -> simulated restart with warm-up."""
    stream = hot_key_stream(args)
    print(
        f"workload: {args.queries} requests over {args.unique} unique rows "
        f"(Zipf), m={args.landmarks} landmarks, durable tier"
    )
    payload_dict = build_engine(args).serving_payload()
    root = Path(
        args.snapshot_root
        if args.snapshot_root is not None
        else tempfile.mkdtemp(prefix="bench-persistence-")
    )

    cold_decisions, cold, cold_store = run_durable_pass(
        args, payload_dict, stream, root, warm=False
    )
    manifest = cold_store.snapshot()
    print(
        f"cold boot: {cold['wall_s']:.3f} s ({cold['throughput_rps']:.0f} req/s, "
        f"p99={cold['p99_latency_ms']:.2f} ms, {cold['simulations']} simulations); "
        f"snapshot of {len(manifest.keys)} states written"
    )

    warm_decisions, warm, _ = run_durable_pass(
        args, payload_dict, stream, root, warm=True
    )
    print(
        f"warm restart: {warm['wall_s']:.3f} s ({warm['throughput_rps']:.0f} req/s, "
        f"p99={warm['p99_latency_ms']:.2f} ms, {warm['simulations']} simulations, "
        f"{warm['warm_loaded_keys']} states prefetched)"
    )

    byte_identical = bool(np.array_equal(warm_decisions, cold_decisions))
    warm_vs_cold_p99 = warm["p99_latency_ms"] / cold["p99_latency_ms"]
    failures = []
    if not byte_identical:
        failures.append("warm restart is not byte-identical to the cold boot")
    if warm["simulations"] != 0:
        failures.append(
            f"warm restart ran {warm['simulations']} simulations, expected 0"
        )
    if warm_vs_cold_p99 > args.max_warm_p99_ratio:
        failures.append(
            f"warm p99 is {warm_vs_cold_p99:.2f}x the cold p99, "
            f"required <= {args.max_warm_p99_ratio}"
        )

    payload = {
        "version": __version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workload": {
            "queries": args.queries,
            "unique_rows": args.unique,
            "distribution": "zipf",
            "train_size": args.train_size,
            "landmarks": args.landmarks,
            "features": args.features,
            "seed": args.seed,
        },
        "cold": cold,
        "warm": warm,
        "snapshot_states": len(manifest.keys),
        "snapshot_bytes": manifest.payload_bytes,
        "warm_loaded_keys": warm["warm_loaded_keys"],
        "warm_vs_cold_p99": warm_vs_cold_p99,
        "byte_identical": byte_identical,
        "max_warm_p99_ratio_required": args.max_warm_p99_ratio,
        "ok": not failures,
    }
    return payload, failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scenario",
        choices=("queue", "persistence"),
        default="queue",
        help="'queue' benchmarks batch coalescing; 'persistence' benchmarks "
        "a cold boot vs a snapshot-warmed restart of the durable tier",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="defaults to BENCH_serving.json / BENCH_persistence.json by "
        "scenario",
    )
    parser.add_argument(
        "--snapshot-root",
        type=Path,
        default=None,
        help="durable-tier directory for the persistence scenario "
        "(default: a fresh temporary directory)",
    )
    parser.add_argument(
        "--max-warm-p99-ratio",
        type=float,
        default=0.9,
        help="the warm restart's p99 must be at most this fraction of cold p99",
    )
    parser.add_argument("--queries", type=int, default=1024)
    parser.add_argument("--unique", type=int, default=64)
    parser.add_argument("--train-size", type=int, default=160)
    parser.add_argument("--landmarks", type=int, default=48)
    parser.add_argument("--features", type=int, default=6)
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="offset applied to every workload seed; the default keeps CI "
        "runs deterministic so baseline comparisons are run-to-run stable",
    )
    parser.add_argument(
        "--emit-metrics",
        type=Path,
        default=None,
        help="bind a telemetry registry to every served queue and dump it "
        "after the run: Prometheus text at this path, JSON at PATH.json",
    )
    args = parser.parse_args()
    args.metrics_registry = (
        MetricsRegistry() if args.emit_metrics is not None else None
    )
    if args.out is None:
        args.out = Path(
            "BENCH_persistence.json"
            if args.scenario == "persistence"
            else "BENCH_serving.json"
        )

    if args.scenario == "persistence":
        payload, failures = run_persistence_scenario(args)
        maybe_emit_metrics(args, payload)
        args.out.write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"wrote {args.out}")
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            raise SystemExit(1)
        print(
            f"OK: warm restart serves byte-identically with 0 simulations at "
            f"{payload['warm_vs_cold_p99']:.2f}x the cold p99"
        )
        return

    stream = hot_key_stream(args)
    print(
        f"workload: {args.queries} requests over {args.unique} unique rows "
        f"(Zipf), m={args.landmarks} landmarks"
    )

    baseline_decisions, baseline = run_baseline(args, stream)
    print(
        f"one-at-a-time: {baseline['wall_s']:.3f} s "
        f"({baseline['throughput_rps']:.0f} req/s)"
    )

    records = [baseline]
    failures = []
    acceptance_speedup = None
    for max_batch, memoize in ((1, True), (8, True), (32, False), (32, True)):
        decisions, record = run_queue(args, stream, max_batch, memoize)
        record["speedup_vs_baseline"] = (
            record["throughput_rps"] / baseline["throughput_rps"]
        )
        record["byte_identical"] = bool(
            np.array_equal(decisions, baseline_decisions)
        )
        records.append(record)
        print(
            f"queue max_batch={max_batch} memo={memoize}: "
            f"{record['wall_s']:.3f} s ({record['throughput_rps']:.0f} req/s, "
            f"{record['speedup_vs_baseline']:.2f}x, "
            f"p50={record['p50_latency_ms']:.2f} ms, "
            f"p99={record['p99_latency_ms']:.2f} ms, "
            f"identical={record['byte_identical']})"
        )
        if not record["byte_identical"]:
            failures.append(
                f"queue max_batch={max_batch} memo={memoize} is not byte-identical"
            )
        if max_batch == 32 and memoize:
            acceptance_speedup = record["speedup_vs_baseline"]

    if acceptance_speedup is None or acceptance_speedup < args.min_speedup:
        failures.append(
            f"max_batch=32 speedup {acceptance_speedup} < required {args.min_speedup}"
        )

    payload = {
        "version": __version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workload": {
            "queries": args.queries,
            "unique_rows": args.unique,
            "distribution": "zipf",
            "train_size": args.train_size,
            "landmarks": args.landmarks,
            "features": args.features,
            "seed": args.seed,
        },
        "records": records,
        "min_speedup_required": args.min_speedup,
        "acceptance_speedup": acceptance_speedup,
        "ok": not failures,
    }
    maybe_emit_metrics(args, payload)
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"wrote {args.out}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        raise SystemExit(1)
    print(
        f"OK: max_batch=32 queue serves {acceptance_speedup:.2f}x the baseline "
        "throughput with byte-identical predictions"
    )


if __name__ == "__main__":
    main()
