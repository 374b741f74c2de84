"""Encoding benchmark: stacked batch encoding vs per-point circuit simulation.

The serving story batches overlaps, caches states and coalesces requests --
but until the batched encoding subsystem, every *cold* feature vector still
simulated its circuit one gate at a time.  This benchmark measures what the
stacked layer encode (:meth:`repro.backends.Backend.simulate_batch`, one
diagonal MPO per ansatz layer) buys:

* **encode throughput**: a block of fresh rows encoded per-point
  (``KernelEngine.simulate_row`` in a loop: gate-by-gate simulation of each
  row's circuit) versus stacked encodes of the rows' angle table
  (``feature_map_batch``) at several batch sizes.  A row's encoded state
  depends on the row alone, so every batched
  mode must give states byte-identical to encoding each row by itself
  (``KernelEngine.encode_row``); against per-point simulation the states
  agree to rounding, ``max_oracle_infidelity`` (the largest
  ``1 - |<batched|per-point>|^2``) at most :data:`MAX_ORACLE_INFIDELITY`;
* **cold-query serving latency**: a stream of entirely-unseen rows pushed
  through :class:`repro.serving.AsyncServingQueue` -- throughput and p50/p99
  latency, with every decision value required to be byte-identical to
  point-at-a-time classification (each row classified alone).

The script writes ``BENCH_encoding.json`` and exits non-zero when the
acceptance contract breaks:

* batch-32 encode throughput must reach at least ``--min-speedup`` (2x) the
  per-point path;
* every batched mode must produce states byte-identical to one-row encodes,
  and cold predictions byte-identical to one-row classification;
* no batched state may be further than ``MAX_ORACLE_INFIDELITY`` from its
  per-point simulation.

Run with:  python benchmarks/bench_encoding.py [--out BENCH_encoding.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import __version__
from repro.approx import LinearSVC, NystroemConfig, NystroemFeatureMap
from repro.approx.streaming import StreamingNystroemClassifier
from repro.backends import CpuBackend
from repro.circuits import feature_map_batch
from repro.config import AnsatzConfig
from repro.engine import EngineConfig, KernelEngine
from repro.serving import AsyncServingQueue
from repro.telemetry import MetricsRegistry, bind_queue, render_prometheus


#: Largest ``1 - |<batched|per-point>|^2`` a batched encode may show.
MAX_ORACLE_INFIDELITY = 1e-12


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


def states_identical(left, right) -> bool:
    """Byte-level equality of two encoded state lists."""
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if len(a.tensors) != len(b.tensors):
            return False
        for ta, tb in zip(a.tensors, b.tensors):
            if ta.shape != tb.shape or ta.tobytes() != tb.tobytes():
                return False
    return True


def max_infidelity(states, oracle) -> float:
    """Largest ``1 - |<a|b>|^2`` (norm-corrected) over paired states."""
    worst = 0.0
    for a, b in zip(states, oracle):
        overlap = abs(a.inner_product(b)) ** 2
        norms = abs(a.inner_product(a)) * abs(b.inner_product(b))
        worst = max(worst, 1.0 - overlap / norms)
    return worst


def run_encode_throughput(args, rng) -> tuple[list[dict], list[str]]:
    """Per-point vs stacked encode rates on one block of fresh rows."""
    ansatz = AnsatzConfig(
        num_features=args.features,
        interaction_distance=args.distance,
        layers=args.layers,
        gamma=0.8,
    )
    X = rng.uniform(0.05, 1.95, size=(args.rows, args.features))

    engine = KernelEngine(ansatz)
    engine.encode_rows(X[:4])  # warm NumPy/LAPACK paths
    start = time.perf_counter()
    reference = [engine.simulate_row(row).state for row in X]
    per_point_s = time.perf_counter() - start
    alone = [engine.encode_row(row) for row in X]

    records = [
        {
            "mode": "per-point",
            "batch_size": 1,
            "wall_s": per_point_s,
            "encodes_per_sec": len(X) / per_point_s,
            "byte_identical": True,
        }
    ]
    failures: list[str] = []
    for batch_size in (1, 8, args.batch):
        backend = CpuBackend()
        start = time.perf_counter()
        states: list = []
        for lo in range(0, len(X), batch_size):
            batch = feature_map_batch(X[lo : lo + batch_size], ansatz)
            states.extend(backend.simulate_batch(batch).states)
        elapsed = time.perf_counter() - start
        identical = states_identical(states, alone)
        infidelity = max_infidelity(states, reference)
        record = {
            "mode": "batched",
            "batch_size": batch_size,
            "wall_s": elapsed,
            "encodes_per_sec": len(X) / elapsed,
            "speedup_vs_per_point": per_point_s / elapsed,
            "byte_identical": identical,
            "max_oracle_infidelity": infidelity,
        }
        records.append(record)
        print(
            f"encode batch={batch_size}: {elapsed:.3f} s "
            f"({record['encodes_per_sec']:.0f} encodes/s, "
            f"{record['speedup_vs_per_point']:.2f}x, identical={identical}, "
            f"oracle infidelity={infidelity:.1e})"
        )
        if not identical:
            failures.append(
                f"batched encode (batch={batch_size}) not byte-identical to one-row encodes"
            )
        if infidelity > MAX_ORACLE_INFIDELITY:
            failures.append(
                f"batched encode (batch={batch_size}) infidelity {infidelity:.2e} "
                f"> {MAX_ORACLE_INFIDELITY:.0e} against per-point simulation"
            )
    return records, failures


def build_classifier(args) -> StreamingNystroemClassifier:
    """A freshly fitted Nystrom serving stack (deterministic given the seed)."""
    rng = np.random.default_rng(args.seed)
    ansatz = AnsatzConfig(
        num_features=args.features, interaction_distance=1, layers=2, gamma=0.5
    )
    engine = KernelEngine(ansatz, config=EngineConfig(use_cache=True))
    X = rng.uniform(0.05, 1.95, size=(args.train_size, args.features))
    y = (X.mean(axis=1) > 1.0).astype(int)
    feature_map = NystroemFeatureMap(
        engine, NystroemConfig(num_landmarks=args.landmarks, seed=0)
    )
    phi = feature_map.fit_transform(X)
    model = LinearSVC(C=1.0).fit(phi, y)
    return StreamingNystroemClassifier(feature_map, model)


def run_cold_serving(args, mode_rng_seed: int = 11) -> tuple[list[dict], list[str]]:
    """Cold-traffic queue latency, checked against one-row-at-a-time classification."""
    rng = np.random.default_rng(mode_rng_seed + args.seed)
    stream = rng.uniform(0.05, 1.95, size=(args.queries, args.features))

    # The oracle: every row classified alone, so each is encoded by itself.
    # It runs first so the timed queue run below starts in a warmed-up
    # process; run cold, the same queue measures ~30% lower throughput.
    oracle = build_classifier(args)
    expected = np.array(
        [oracle.classify(row[None, :]).decision_values[0] for row in stream]
    )
    queue = AsyncServingQueue(
        build_classifier(args),
        max_batch=args.batch,
        memoize=False,
    )
    if args.metrics_registry is not None:
        bind_queue(args.metrics_registry, queue, replica="cold")
    start = time.perf_counter()
    futures = queue.submit_many(stream)
    results = [f.result(timeout=600) for f in futures]
    elapsed = time.perf_counter() - start
    queue.close()
    snapshot = queue.metrics.to_dict()
    served = np.array([r.decision_value for r in results])
    identical = served.tobytes() == expected.tobytes()
    record = {
        "mode": "cold-queue",
        "queries": args.queries,
        "wall_s": elapsed,
        "throughput_rps": args.queries / elapsed,
        "p50_latency_ms": snapshot["p50_latency_s"] * 1e3,
        "p99_latency_ms": snapshot["p99_latency_s"] * 1e3,
        "mean_batch_size": snapshot["mean_batch_size"],
        "byte_identical": identical,
    }
    print(
        f"cold queue: {elapsed:.3f} s "
        f"({record['throughput_rps']:.0f} req/s, "
        f"p50={record['p50_latency_ms']:.2f} ms, "
        f"p99={record['p99_latency_ms']:.2f} ms, identical={identical})"
    )
    failures = [] if identical else ["cold-path predictions differ from per-point"]
    return [record], failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("BENCH_encoding.json"))
    parser.add_argument("--rows", type=int, default=96)
    parser.add_argument("--batch", type=int, default=32)
    parser.add_argument("--features", type=int, default=8)
    parser.add_argument("--distance", type=int, default=2)
    parser.add_argument("--layers", type=int, default=2)
    parser.add_argument("--queries", type=int, default=192)
    parser.add_argument("--train-size", type=int, default=64)
    parser.add_argument("--landmarks", type=int, default=16)
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="workload seed; fixed seeds keep baseline comparisons deterministic",
    )
    parser.add_argument(
        "--emit-metrics",
        type=Path,
        default=None,
        help="bind a telemetry registry to the served queue "
        "and dump it after the run: Prometheus text here, JSON at PATH.json",
    )
    args = parser.parse_args()
    args.metrics_registry = (
        MetricsRegistry() if args.emit_metrics is not None else None
    )
    rng = np.random.default_rng(args.seed)
    print(
        f"workload: {args.rows} encodes (m={args.features}, d={args.distance}, "
        f"r={args.layers}), {args.queries} cold queries"
    )

    encode_records, failures = run_encode_throughput(args, rng)
    serving_records, serving_failures = run_cold_serving(args)
    failures.extend(serving_failures)

    acceptance_speedup = next(
        r["speedup_vs_per_point"]
        for r in encode_records
        if r.get("mode") == "batched" and r.get("batch_size") == args.batch
    )
    if acceptance_speedup < args.min_speedup:
        failures.append(
            f"batch={args.batch} encode speedup {acceptance_speedup:.2f} "
            f"< required {args.min_speedup}"
        )

    max_oracle_infidelity = max(
        r["max_oracle_infidelity"] for r in encode_records if r["mode"] == "batched"
    )
    payload = {
        "benchmark": "encoding",
        "version": __version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workload": {
            "rows": args.rows,
            "batch": args.batch,
            "features": args.features,
            "distance": args.distance,
            "layers": args.layers,
            "cold_queries": args.queries,
            "train_size": args.train_size,
            "landmarks": args.landmarks,
            "seed": args.seed,
        },
        "records": encode_records + serving_records,
        "min_speedup_required": args.min_speedup,
        "acceptance_speedup": acceptance_speedup,
        "max_oracle_infidelity": max_oracle_infidelity,
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
        f"OK: batch-{args.batch} stacked encoding reaches {acceptance_speedup:.2f}x "
        "per-point throughput; states and predictions byte-identical to one-row "
        f"encodes, within {max_oracle_infidelity:.1e} of per-point simulation"
    )


if __name__ == "__main__":
    main()
