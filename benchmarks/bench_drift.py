"""Drift-adaptation benchmark: alarm -> shadow fit -> atomic swap -> recovery.

Replays the online drift scenario end to end against a live serving queue:

1. **i.i.d. phase** -- the stream's head is exchangeable with the conformal
   calibration split; the controller must stay silent (zero false alarms).
2. **shift phase** -- every later request is translated by two training
   standard deviations per feature (covariate shift); rolling conformal
   coverage collapses below ``1 - alpha - hysteresis`` and the alarm fires.
3. **adaptation** -- ``DriftController.adapt`` runs the shadow fit (landmark
   growth by ridge leverage scores, warm-started Newton refit, conformal
   recalibration on held-out fresh samples) and installs the new model via
   the queue's atomic swap.  A background thread keeps submitting requests
   for the whole duration of the adaptation: serving must never pause and no
   request may be dropped.
4. **recovery phase** -- post-swap traffic from the shifted regime must bring
   rolling coverage back to at least ``1 - alpha - 0.02``.
5. **steady-state refresh** -- a second ``adapt`` on stabilised traffic with
   the landmark basis frozen (growth is the emergency path; a routine
   refresh refits and recalibrates on fresh samples over the same basis),
   fitted both warm (from the previous generation's solution) and cold
   (from zero).  The warm start must converge in strictly fewer semismooth
   Newton iterations: this is the incremental refresh the warm-start path
   exists for.  (The *first* emergency refit is reported too, but not gated
   -- right after a shift the previous solution is far from the new optimum
   and the basis grows under it, so warm and cold cost about the same.)

Writes ``BENCH_drift.json`` and exits non-zero when the acceptance contract
breaks: a false alarm under i.i.d. traffic, no alarm under shift, dropped or
paused requests around the swap, coverage that fails to recover, or a warm
refresh that is not cheaper than cold.

Run with:  python benchmarks/bench_drift.py [--out BENCH_drift.json]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.approx import DriftConfig, DriftController, NystroemConfig
from repro.config import AnsatzConfig
from repro.core import QuantumKernelInferenceEngine
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like
from repro.svm import SplitConformalClassifier
from repro.telemetry import MetricsRegistry, bind_drift_controller, bind_queue


def build_scenario(args) -> dict:
    """Train/calibration/stream splits of one balanced pool, shift injected.

    All three splits slice a single shuffled balanced subsample: the data
    generator draws fresh cluster centroids per seed, so this is what makes
    the calibration split and the pre-changepoint stream exchangeable --
    the injected translation is then the only shift present.
    """
    total = args.train_size + args.calib_size + args.stream_size
    pool = balanced_subsample(
        generate_elliptic_like(
            DatasetSpec(
                num_samples=max(4000, 8 * total),
                num_features=args.features,
                seed=args.seed + 11,
            )
        ),
        total if total % 2 == 0 else total + 1,
        seed=args.seed + 3,
    )
    X = np.array(pool.features, dtype=float)
    y = np.array(pool.labels, dtype=int)
    X_train, y_train = X[: args.train_size], y[: args.train_size]
    calib_end = args.train_size + args.calib_size
    X_calib, y_calib = X[args.train_size : calib_end], y[args.train_size : calib_end]
    X_stream = X[calib_end : total].copy()
    y_stream = y[calib_end : total].copy()
    X_stream[args.changepoint :] += args.shift * np.std(X_train, axis=0)
    return {
        "X_train": X_train,
        "y_train": y_train,
        "X_calib": X_calib,
        "y_calib": y_calib,
        "X_stream": X_stream,
        "y_stream": y_stream,
    }


def run_benchmark(args) -> tuple[dict, list]:
    scenario = build_scenario(args)
    ansatz = AnsatzConfig(
        num_features=args.features, interaction_distance=1, layers=1, gamma=0.6
    )
    engine = QuantumKernelInferenceEngine(
        ansatz,
        approximation=NystroemConfig(num_landmarks=args.landmarks, seed=0),
        C=args.svm_c,
    )
    engine.fit(scenario["X_train"], scenario["y_train"])
    conformal = SplitConformalClassifier(alpha=args.alpha).calibrate(
        engine.decision_function(scenario["X_calib"]), scenario["y_calib"]
    )

    # The refresh buffer is deliberately large: a warm start only saves
    # iterations when consecutive refit samples are big enough that their
    # optima nearly coincide (the O(1/sqrt(n)) sampling drift shrinks below
    # what one Newton step covers).
    config = DriftConfig(
        hysteresis=0.10,
        window=160,
        min_samples=80,
        buffer_size=512,
        min_refit_samples=60,
        calibration_fraction=0.3,
        max_new_landmarks=8,
        reconstruction_bound=0.02,
        seed=0,
        warm_start=True,
        compare_cold=True,  # fit both starts so iteration counts are comparable
    )

    queue = engine.serving_queue(max_batch=8)
    registry = MetricsRegistry()
    bind_queue(registry, queue)
    controller = DriftController(
        engine.streaming_classifier(), conformal, target=queue, config=config
    )
    bind_drift_controller(registry, controller)

    submitted = 0
    resolved = 0
    X_stream, y_stream = scenario["X_stream"], scenario["y_stream"]

    def serve(lo: int, hi: int, chunk: int = 10) -> None:
        nonlocal submitted, resolved
        for i in range(lo, hi, chunk):
            rows, labels = X_stream[i : i + chunk], y_stream[i : i + chunk]
            futures = queue.submit_many(rows)
            submitted += len(futures)
            queue.flush()
            decisions = np.array(
                [f.result(timeout=120).decision_value for f in futures]
            )
            resolved += len(futures)
            controller.record_feedback(rows, decisions, labels)

    failures: list[str] = []

    # Phase 1: i.i.d. head -- must stay silent.
    serve(0, args.changepoint)
    iid = {
        "alarms": controller.alarm_count,
        "coverage": controller.rolling_coverage(),
    }
    if controller.alarm_count:
        failures.append("false alarm under i.i.d. traffic")

    # Phase 2: shifted traffic until the alarm fires.
    fired_after = None
    i = args.changepoint
    while i < 400 and not controller.alarm_active:
        serve(i, i + 10)
        i += 10
    if controller.alarm_active:
        fired_after = i - args.changepoint
    else:
        failures.append("alarm never fired under covariate shift")
    alarm = {
        "fired": controller.alarm_active,
        "shifted_samples_to_alarm": fired_after,
        "coverage_at_alarm": controller.rolling_coverage(),
    }
    # Fill the adaptation buffer until the i.i.d. head has rolled out of it
    # entirely: the shadow fit recalibrates on a held-out slice of this
    # buffer, and recovery traffic is purely shifted, so the calibration
    # sample must be too (exchangeability is what the coverage guarantee
    # rests on).
    buffer_full_of_shift = args.changepoint + config.buffer_size + 70
    serve(i, buffer_full_of_shift)
    i = buffer_full_of_shift

    # Phase 3: adapt while a background thread keeps traffic flowing.
    swap_window = X_stream[i : i + 32]
    during_swap: list = []

    def pound() -> None:
        futures = [queue.submit(row) for row in swap_window]
        queue.flush()
        during_swap.extend(f.result(timeout=120) for f in futures)

    pounder = threading.Thread(target=pound)
    t0 = time.perf_counter()
    pounder.start()
    first = controller.adapt()
    pounder.join()
    first_s = time.perf_counter() - t0
    i += 32
    submitted += len(swap_window)
    resolved += len(during_swap)
    if len(during_swap) != len(swap_window):
        failures.append("requests dropped while the swap was in flight")
    if queue.model_version != first.version:
        failures.append("queue version does not match the adaptation report")

    # Phase 4: recovery on post-swap shifted traffic.
    serve(i, args.stream_size - 100)
    recovery_target = 1.0 - args.alpha - 0.02
    recovery = {
        "coverage": controller.rolling_coverage(),
        "target": recovery_target,
        "recovered": controller.rolling_coverage() >= recovery_target,
    }
    if not recovery["recovered"]:
        failures.append(
            f"coverage {recovery['coverage']:.3f} below target {recovery_target:.3f}"
        )

    # Phase 5: steady-state refresh -- warm start must beat cold outright.
    # The basis is frozen: a routine refresh re-estimates the model and the
    # conformal quantile on fresh traffic, it does not grow landmarks.
    serve(args.stream_size - 100, args.stream_size)
    controller.config = dataclasses.replace(config, max_new_landmarks=0)
    t0 = time.perf_counter()
    second = controller.adapt()
    second_s = time.perf_counter() - t0
    warm_fewer = (
        second.cold_iterations is not None
        and second.warm_iterations < second.cold_iterations
    )
    if not warm_fewer:
        failures.append(
            f"warm refresh took {second.warm_iterations} iterations vs "
            f"{second.cold_iterations} cold"
        )

    versions = sorted({r.model_version for r in during_swap})
    if any(v not in (0, 1) for v in versions):
        failures.append(f"unexpected model versions during swap: {versions}")
    if submitted != resolved:
        failures.append(f"{submitted - resolved} of {submitted} requests dropped")

    snapshot = registry.to_dict()
    telemetry = {
        name: snapshot[name]["series"][0]["value"]
        for name in (
            "repro_drift_alarms_total",
            "repro_drift_swaps_total",
            "repro_serving_model_version",
        )
        if name in snapshot and snapshot[name]["series"]
    }
    queue.close()

    payload = {
        "host": platform.platform(),
        "params": {
            "alpha": args.alpha,
            "svm_c": args.svm_c,
            "landmarks": args.landmarks,
            "features": args.features,
            "stream_size": args.stream_size,
            "changepoint": args.changepoint,
            "shift": args.shift,
            "drift_config": config.to_dict(),
        },
        "iid": iid,
        "alarm": alarm,
        "adaptation": {**first.to_dict(), "seconds": first_s},
        "refresh": {
            **second.to_dict(),
            "seconds": second_s,
            "warm_fewer_iterations": warm_fewer,
        },
        "recovery": recovery,
        "serving": {
            "submitted": submitted,
            "resolved": resolved,
            "dropped_requests": submitted - resolved,
            "during_swap_resolved": len(during_swap),
            "during_swap_versions": versions,
            "swaps": queue.swap_count,
            "final_model_version": queue.model_version,
        },
        "telemetry": telemetry,
        "ok": not failures,
    }
    return payload, failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("BENCH_drift.json"))
    parser.add_argument("--alpha", type=float, default=0.15)
    parser.add_argument("--features", type=int, default=4)
    parser.add_argument("--landmarks", type=int, default=10)
    parser.add_argument("--train-size", type=int, default=60)
    parser.add_argument("--calib-size", type=int, default=100)
    parser.add_argument("--stream-size", type=int, default=1300)
    parser.add_argument("--changepoint", type=int, default=120)
    parser.add_argument("--shift", type=float, default=2.0)
    parser.add_argument("--svm-c", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    payload, failures = run_benchmark(args)
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(json.dumps(payload, indent=2, sort_keys=True))
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        raise SystemExit(1)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
