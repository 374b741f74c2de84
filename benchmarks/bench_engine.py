"""Engine benchmark smoke: cache hit-rate and pairs/sec trajectory artifact.

Runs one small but representative engine workload -- a training Gram matrix,
a test cross matrix reusing the training states, and a warm inference replay
-- and writes ``BENCH_engine.json`` with measured throughput (pairs/sec),
cache statistics and bond-dimension bookkeeping.  CI
uploads the file so future PRs have a perf trajectory to compare against.

Run with:  python benchmarks/bench_engine.py [--out BENCH_engine.json]
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
from repro.config import AnsatzConfig
from repro.engine import EngineConfig, KernelEngine


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("BENCH_engine.json"))
    parser.add_argument("--train-size", type=int, default=24)
    parser.add_argument("--test-size", type=int, default=8)
    parser.add_argument("--features", type=int, default=8)
    parser.add_argument("--distance", type=int, default=2)
    args = parser.parse_args()

    rng = np.random.default_rng(42)
    X_train = rng.uniform(0.1, 1.9, size=(args.train_size, args.features))
    X_test = rng.uniform(0.1, 1.9, size=(args.test_size, args.features))
    ansatz = AnsatzConfig(
        num_features=args.features,
        interaction_distance=args.distance,
        layers=2,
        gamma=1.0,
    )

    engine = KernelEngine(ansatz, config=EngineConfig(use_cache=True))

    start = time.perf_counter()
    train_result, test_result = engine.gram_and_cross(X_train, X_test)
    cold_elapsed = time.perf_counter() - start

    # Warm replay: every point is cached, only overlaps are evaluated.
    start = time.perf_counter()
    warm_result = engine.cross(X_test, train_result.states)
    warm_elapsed = time.perf_counter() - start

    cold_pairs = train_result.num_inner_products + test_result.num_inner_products
    stats = engine.cache_stats()

    payload = {
        "benchmark": "engine_smoke",
        "version": __version__,
        "python": platform.python_version(),
        "config": {
            "train_size": args.train_size,
            "test_size": args.test_size,
            "num_features": args.features,
            "interaction_distance": args.distance,
        },
        "cold": {
            "elapsed_s": cold_elapsed,
            "pairs": cold_pairs,
            "pairs_per_sec": cold_pairs / cold_elapsed if cold_elapsed > 0 else None,
            "num_simulations": train_result.num_simulations
            + test_result.num_simulations,
            "simulation_time_s": train_result.simulation_time_s
            + test_result.simulation_time_s,
            "inner_product_time_s": train_result.inner_product_time_s
            + test_result.inner_product_time_s,
            "max_bond_dimension": max(
                train_result.max_bond_dimension, test_result.max_bond_dimension
            ),
        },
        "warm": {
            "elapsed_s": warm_elapsed,
            "pairs": warm_result.num_inner_products,
            "pairs_per_sec": (
                warm_result.num_inner_products / warm_elapsed
                if warm_elapsed > 0
                else None
            ),
            "num_simulations": warm_result.num_simulations,
            "cache_hits": warm_result.cache_hits,
        },
        "cache": stats.to_dict(),
    }

    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {args.out}")

    if warm_result.num_simulations != 0:
        raise SystemExit("warm replay performed simulations; cache reuse is broken")


if __name__ == "__main__":
    main()
