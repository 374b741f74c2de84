"""Encoding benchmark: stacked batch encoding vs per-point circuit simulation.

The serving story batches overlaps, caches states and coalesces requests --
but until the batched encoding subsystem, every *cold* feature vector still
simulated its circuit one gate-sweep at a time.  This benchmark measures what
the stacked sweep (:meth:`repro.backends.Backend.simulate_batch`) buys:

* **encode throughput**: a block of fresh rows encoded per-point
  (``backend.simulate`` in a loop) versus in stacked sweeps at several batch
  sizes, with byte-identical states asserted between every mode;
* **modelled device time**: the per-point versus stacked cost-model entries
  on both the CPU and simulated-GPU models (the A100's launch overhead is
  what stacking amortises, extending the Fig. 5 crossover picture);
* **cold-query serving latency**: a stream of entirely-unseen rows pushed
  through :class:`repro.serving.AsyncServingQueue` -- throughput and p50/p99
  latency, with every decision value required to be byte-identical to
  point-at-a-time classification;
* **modelled cross dispatch**: the Nystrom-scale ``K_nm`` block swept
  through an engine with a GPU cross backend -- the stacked cost models of
  both devices, which one the engine chose, and proof the block actually
  ran on it (with byte-identical values).

The script writes ``BENCH_encoding.json`` and exits non-zero when the
acceptance contract breaks:

* batch-32 encode throughput must reach at least ``--min-speedup`` (2x) the
  per-point path;
* every mode must produce byte-identical states / predictions / kernels.

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
from repro.backends import CpuBackend, SimulatedGpuBackend
from repro.circuits import build_feature_map_circuit
from repro.config import AnsatzConfig
from repro.engine import EngineConfig, KernelEngine
from repro.serving import AsyncServingQueue
from repro.telemetry import (
    MetricsRegistry,
    bind_engine,
    bind_queue,
    render_prometheus,
)


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


def run_encode_throughput(args, rng) -> tuple[list[dict], list[str]]:
    """Per-point vs stacked encode rates on one block of fresh rows."""
    ansatz = AnsatzConfig(
        num_features=args.features,
        interaction_distance=args.distance,
        layers=args.layers,
        gamma=0.8,
    )
    X = rng.uniform(0.05, 1.95, size=(args.rows, args.features))
    circuits = [build_feature_map_circuit(row, ansatz) for row in X]

    backend = CpuBackend()
    backend.simulate_batch(circuits[:4])  # warm NumPy/LAPACK paths
    start = time.perf_counter()
    reference = [backend.simulate(c).state for c in circuits]
    per_point_s = time.perf_counter() - start

    records = [
        {
            "mode": "per-point",
            "batch_size": 1,
            "wall_s": per_point_s,
            "encodes_per_sec": len(circuits) / per_point_s,
            "byte_identical": True,
        }
    ]
    failures: list[str] = []
    for batch_size in (1, 8, args.batch):
        backend = CpuBackend()
        start = time.perf_counter()
        states: list = []
        for lo in range(0, len(circuits), batch_size):
            states.extend(
                backend.simulate_batch(circuits[lo : lo + batch_size]).states
            )
        elapsed = time.perf_counter() - start
        identical = states_identical(states, reference)
        record = {
            "mode": "batched",
            "batch_size": batch_size,
            "wall_s": elapsed,
            "encodes_per_sec": len(circuits) / elapsed,
            "speedup_vs_per_point": per_point_s / elapsed,
            "byte_identical": identical,
        }
        records.append(record)
        print(
            f"encode batch={batch_size}: {elapsed:.3f} s "
            f"({record['encodes_per_sec']:.0f} encodes/s, "
            f"{record['speedup_vs_per_point']:.2f}x, identical={identical})"
        )
        if not identical:
            failures.append(f"batched encode (batch={batch_size}) not byte-identical")

    # Modelled device times: what the stacked launch amortisation is worth on
    # each device model (one entry per backend).
    modelled = []
    for backend in (CpuBackend(), SimulatedGpuBackend()):
        result = backend.simulate_batch(circuits[: args.batch])
        modelled.append(
            {
                "backend": backend.name,
                "batch_size": args.batch,
                "modelled_per_point_s": result.modelled_time_s,
                "modelled_batched_s": result.modelled_batched_time_s,
                "modelled_speedup": result.modelled_time_s
                / result.modelled_batched_time_s,
            }
        )
    return records + modelled, failures


def build_classifier(args) -> StreamingNystroemClassifier:
    """A freshly fitted Nystrom serving stack (deterministic given the seed)."""
    rng = np.random.default_rng(args.seed)
    ansatz = AnsatzConfig(
        num_features=args.features, interaction_distance=1, layers=2, gamma=0.5
    )
    engine = KernelEngine(
        ansatz,
        config=EngineConfig(use_cache=True, encode_batch_size=args.batch),
    )
    X = rng.uniform(0.05, 1.95, size=(args.train_size, args.features))
    y = (X.mean(axis=1) > 1.0).astype(int)
    feature_map = NystroemFeatureMap(
        engine, NystroemConfig(num_landmarks=args.landmarks, seed=0)
    )
    phi = feature_map.fit_transform(X)
    model = LinearSVC(C=1.0).fit(phi, y)
    return StreamingNystroemClassifier(feature_map, model, buffer_size=args.batch)


def run_cold_serving(args, mode_rng_seed: int = 11) -> tuple[list[dict], list[str]]:
    """Cold-traffic queue latency, checked against per-point classification."""
    rng = np.random.default_rng(mode_rng_seed + args.seed)
    stream = rng.uniform(0.05, 1.95, size=(args.queries, args.features))

    # The oracle: every row classified alone, so each is encoded per point.
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


def run_cross_dispatch(args, rng) -> tuple[list[dict], list[str]]:
    """Nystrom-scale ``K_nm`` sweep through the modelled CPU/GPU dispatch."""
    from repro.backends import CPU_COST_MODEL, GPU_COST_MODEL, preferred_cross_model

    # chi saturates at 16 for this ansatz, where a ~2048-pair stacked block
    # clears the A100 model's launch overhead (the per-pair crossover does
    # not arrive until chi ~ 320 -- stacking moves the crossover).
    ansatz = AnsatzConfig(
        num_features=args.features,
        interaction_distance=3,
        layers=2,
        gamma=0.8,
    )
    gpu = SimulatedGpuBackend()
    engine = KernelEngine(ansatz, config=EngineConfig(), cross_backend=gpu)
    if args.metrics_registry is not None:
        bind_engine(args.metrics_registry, engine, replica="dispatch")
    reference = KernelEngine(ansatz, config=EngineConfig())
    X_landmarks = rng.uniform(0.05, 1.95, size=(args.landmarks, args.features))
    X_rows = rng.uniform(0.05, 1.95, size=(args.cross_rows, args.features))
    train_states = engine.encode_rows(X_landmarks)

    start = time.perf_counter()
    routed = engine.cross(X_rows, train_states)
    wall = time.perf_counter() - start
    baseline = reference.cross(X_rows, train_states)

    num_pairs = args.cross_rows * args.landmarks
    chi = max(
        max(s.max_bond_dimension for s in routed.states),
        max(s.max_bond_dimension for s in train_states),
    )
    chosen_model = preferred_cross_model(num_pairs, args.features, chi)
    chosen = "gpu" if chosen_model is GPU_COST_MODEL else "cpu"
    gpu_swept = gpu.num_inner_products == num_pairs

    failures: list[str] = []
    identical = routed.matrix.tobytes() == baseline.matrix.tobytes()
    if not identical:
        failures.append("dispatched cross sweep is not byte-identical to CPU-only")
    if chosen == "gpu" and not gpu_swept:
        failures.append("cost model chose the GPU but the block did not run there")
    record = {
        "mode": "cross-dispatch",
        "rows": args.cross_rows,
        "landmarks": args.landmarks,
        "pairs": num_pairs,
        "chi": chi,
        "modelled_cpu_s": CPU_COST_MODEL.batched_inner_product_time(
            num_pairs, args.features, chi
        ),
        "modelled_gpu_s": GPU_COST_MODEL.batched_inner_product_time(
            num_pairs, args.features, chi
        ),
        "chosen": chosen,
        "gpu_inner_products": gpu.num_inner_products,
        "wall_s": wall,
        "byte_identical": identical,
    }
    print(
        f"cross dispatch: {num_pairs} pairs at chi={chi} -> {chosen} "
        f"(cpu {record['modelled_cpu_s'] * 1e3:.2f} ms vs "
        f"gpu {record['modelled_gpu_s'] * 1e3:.2f} ms modelled)"
    )
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
        "--cross-rows",
        type=int,
        default=128,
        help="rows in the Nystrom K_nm dispatch block "
        "(128 x 16 landmarks = 2048 pairs clears the A100 launch overhead)",
    )
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
        help="bind a telemetry registry to the served queues / dispatch engine "
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
    dispatch_records, dispatch_failures = run_cross_dispatch(args, rng)
    failures.extend(serving_failures)
    failures.extend(dispatch_failures)

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
            "cross_rows": args.cross_rows,
            "seed": args.seed,
        },
        "records": encode_records + serving_records + dispatch_records,
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
    dispatch = dispatch_records[0]
    print(
        f"OK: batch-{args.batch} stacked encoding reaches {acceptance_speedup:.2f}x "
        "per-point throughput with byte-identical states and predictions; "
        f"{dispatch['pairs']}-pair cross block dispatched to {dispatch['chosen']}"
    )


if __name__ == "__main__":
    main()
