"""Durable serving demo: snapshot, then restart warm.

Walks the full durability story of the serving layer:

1. fit a Nystrom-backed :class:`repro.core.QuantumKernelInferenceEngine` and
   serialise it once with :meth:`serving_payload`;
2. **cold boot** a service with ``repro.serve`` whose engine sits on a
   :class:`repro.serving.PersistentStateStore` root -- every unique request
   is simulated once, then ``handle.snapshot()`` persists the cache (atomic
   temp-write-then-rename, checksummed manifest);
3. **restart warm**: a second service over the same root prefetches the
   hottest snapshotted states before its first request (access-log ordered)
   and serves the same stream simulation-free;
4. verify the two runs are byte-identical and print both services'
   ``handle.metrics()`` dashboards side by side.

Run with:  python examples/durable_serving.py [--requests 384] [--max-batch 16]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.approx import NystroemConfig
from repro.config import AnsatzConfig, ServingConfig
from repro.core import QuantumKernelInferenceEngine
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like
from repro.profiling import format_table
from repro.serving import ServingHandle, serve


def drain(handle: ServingHandle, stream: np.ndarray):
    start = time.perf_counter()
    futures = handle.submit_many(stream)
    decisions = np.array([f.result(timeout=600).decision_value for f in futures])
    return decisions, time.perf_counter() - start


def dashboard_row(label: str, wall_s: float, view: dict, num_requests: int) -> dict:
    return {
        "service": label,
        "wall_s": wall_s,
        "req_per_s": num_requests / wall_s,
        "p99_ms": view["p99_latency_s"] * 1e3,
        "mean_batch": view["mean_batch_size"],
        "warm_hit": f"{view['warm_hit_ratio']:.0%}" if "warm_hit_ratio" in view else "-",
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--features", type=int, default=6)
    parser.add_argument("--train-size", type=int, default=120)
    parser.add_argument("--landmarks", type=int, default=32)
    parser.add_argument("--requests", type=int, default=384)
    parser.add_argument("--unique", type=int, default=48)
    parser.add_argument("--max-batch", type=int, default=16)
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="durable-tier directory (default: a fresh temporary directory)",
    )
    args = parser.parse_args()
    root = args.root or Path(tempfile.mkdtemp(prefix="durable-serving-"))

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
    payload = engine.serving_payload()

    rng = np.random.default_rng(5)
    unique = rng.normal(size=(args.unique, args.features))
    weights = 1.0 / np.arange(1, args.unique + 1)
    weights /= weights.sum()
    stream = unique[rng.choice(args.unique, size=args.requests, p=weights)]

    config = ServingConfig(max_batch=args.max_batch, snapshot_root=str(root))

    print(f"cold boot over empty tier {root}")
    with serve(payload, config) as cold:
        cold_decisions, cold_s = drain(cold, stream)
        cold_view = cold.metrics()
        manifest = cold.snapshot()
    print(
        f"snapshot written: {len(manifest.keys)} states, "
        f"{manifest.payload_bytes / 1024:.0f} KiB, checksum {manifest.checksum[:12]}..."
    )

    print("simulated restart: a new service warm-starts from the snapshot")
    with serve(payload, config) as warm:
        report = warm.warm_up_report
        print(
            f"  prefetched {report.loaded}/{report.available} "
            f"states ({report.bytes_loaded / 1024:.0f} KiB)"
        )
        warm_decisions, warm_s = drain(warm, stream)
        warm_view = warm.metrics()

    identical = np.array_equal(cold_decisions, warm_decisions)
    print()
    print(
        format_table(
            [
                dashboard_row("cold boot", cold_s, cold_view, len(stream)),
                dashboard_row("warm restart", warm_s, warm_view, len(stream)),
            ],
            title=f"max_batch {args.max_batch}",
        )
    )
    print()
    print(f"byte-identical across restart: {identical}")
    if not identical:
        raise SystemExit("durability equivalence violated!")


if __name__ == "__main__":
    main()
