"""Accuracy-versus-rank crossover: the Nystrom path against the exact kernel.

The exact quantum-kernel workflow evaluates ``n (n - 1) / 2`` MPS overlaps;
the Nystrom subsystem needs only ``n m + m (m - 1) / 2`` for ``m`` landmark
points.  This example sweeps the landmark count on one synthetic fraud
sample (sharing a single engine state store across ranks, so every data
point is encoded exactly once for the whole sweep), prints the
AUC-versus-pairs crossover table next to the exact baseline, and then serves
a stream of "new traffic" through the best low-rank model -- ``m`` overlaps
per classified point, with calibrated probabilities-free conformal sets on
top.

Run with:  python examples/nystroem_rank_sweep.py [--train-size 96]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.approx import NystroemConfig, StreamingNystroemClassifier
from repro.config import AnsatzConfig
from repro.core import QuantumKernelPipeline
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like
from repro.svm import SplitConformalClassifier, train_test_split


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train-size", type=int, default=96)
    parser.add_argument("--test-size", type=int, default=32)
    parser.add_argument("--features", type=int, default=6)
    parser.add_argument("--ranks", type=int, nargs="+", default=[8, 16, 32, 64])
    args = parser.parse_args()

    total = args.train_size + args.test_size
    data = balanced_subsample(
        generate_elliptic_like(
            DatasetSpec(
                num_samples=4 * total,
                num_features=args.features,
                positive_fraction=0.4,
                seed=11,
            )
        ),
        total,
        seed=2,
    )
    X_train, X_test, y_train, y_test = train_test_split(
        data.features, data.labels, test_fraction=args.test_size / total, seed=0
    )
    ansatz = AnsatzConfig(
        num_features=args.features, interaction_distance=1, layers=2, gamma=0.5
    )
    ranks = [m for m in args.ranks if m <= X_train.shape[0]]
    skipped = sorted(set(args.ranks) - set(ranks))
    if skipped:
        print(f"skipping ranks {skipped}: larger than the {X_train.shape[0]}-sample training set")
    if not ranks:
        raise SystemExit(
            f"no usable ranks: all of {sorted(set(args.ranks))} exceed the "
            f"{X_train.shape[0]}-sample training set"
        )

    # Exact baseline.
    exact = QuantumKernelPipeline(ansatz, c_grid=(0.5, 1.0, 2.0)).run(
        X_train, y_train, X_test, y_test
    )
    exact_pairs = int(exact.resource_metrics["num_inner_products"])
    print(f"exact: AUC={exact.test_auc:.4f}  engine pairs={exact_pairs}")

    # Rank sweep, one shared engine / state store.
    pipeline = QuantumKernelPipeline(
        ansatz,
        c_grid=(0.5, 1.0, 2.0),
        approximation=NystroemConfig(num_landmarks=ranks[0], strategy="greedy"),
    )
    results = pipeline.run_rank_sweep(X_train, y_train, X_test, y_test, ranks)

    print("\n  m    rank   pairs(fit)  budget   AUC     gap")
    for m in ranks:
        r = results[m]
        report = r.approximation["report"]
        print(
            f"{m:5d}  {report['spectral_rank']:5d}  "
            f"{report['fit_pair_evaluations']:9d}  "
            f"{r.approximation['pair_budget']:7d}  "
            f"{r.test_auc:.4f}  {abs(r.test_auc - exact.test_auc):+.4f}"
        )

    # Serve "new traffic" through the best rank: m overlaps per point.
    best_m = max(ranks, key=lambda m: results[m].test_auc)
    best = results[best_m]
    from repro.approx import LinearSVC, NystroemFeatureMap
    from repro.engine import EngineConfig, KernelEngine

    engine = KernelEngine(ansatz, config=EngineConfig(use_cache=True))
    fmap_cfg = NystroemConfig(num_landmarks=best_m, strategy="greedy")
    fmap = NystroemFeatureMap(engine, fmap_cfg)
    phi = fmap.fit_transform(pipeline.scaler.fit_transform(X_train))
    model = LinearSVC(C=best.best_C).fit(phi, y_train)

    service = StreamingNystroemClassifier(fmap, model, scaler=pipeline.scaler)
    served = service.classify(X_test)
    decisions = served.decision_values
    pairs_per_point = served.num_inner_products / len(decisions)
    print(
        f"\nstreaming service at m={best_m}: {len(decisions)} points, "
        f"{pairs_per_point:.0f} overlaps/point (vs {X_train.shape[0]} exact)"
    )

    # Conformal sets on the streamed decisions (calibrate on half, eval on half).
    half = len(decisions) // 2
    conformal = SplitConformalClassifier(alpha=0.2).calibrate(
        decisions[:half], y_test[:half]
    )
    sets = conformal.predict_set(decisions[half:])
    print(
        f"conformal @ alpha=0.2: coverage="
        f"{conformal.empirical_coverage(y_test[half:], sets):.3f}, "
        f"avg set size={conformal.average_set_size(sets):.2f}"
    )


if __name__ == "__main__":
    main()
