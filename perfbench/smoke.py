"""Smoke test of the benchmark at tiny sizes (a few seconds).

Run from the repository root::

    python3 perfbench/smoke.py

It checks that

* every workload, untraced and traced, prints every metric that
  ``BENCHMARK.json`` declares, with its declared unit and a finite value,
  and passes its own output checks;
* the served-decision check fails when one decision in the benchmark's copy
  of the results is corrupted by one ulp.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np

import run

TINY = dict(
    setups=1,
    serve_setups=1,
    train_rows=16,
    test_rows=8,
    warmup_rows=8,
    gram_check_rows=6,
    train_pool=512,
    fit_rows=24,
    landmarks=6,
    pool=12,
    rate=40.0,
    drain_rps=48.0,
    latency_chunks=2,
    oracle_rows=4,
)


def check(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"smoke: FAILED: {message}")
    print(f"smoke: ok: {message}")


def check_outputs(sizes) -> None:
    for trace in (False, True):
        units = run.declared_metrics(trace)
        for workload in run.WORKLOADS:
            result = run.run(workload, seed=1, seconds=1.0, trace=trace, sizes=sizes)
            detail, result = result["detail"], result["result"]
            label = f"{workload} trace={int(trace)}"
            check(result["correct"], f"{label} passes its checks {detail['problems']}")
            metrics = result["metrics"]
            check(set(metrics) == set(units), f"{label} prints exactly the declared metrics")
            check(
                all(metrics[name]["unit"] == unit for name, unit in units.items()),
                f"{label} prints every metric with its declared unit",
            )
            check(
                all(math.isfinite(m["value"]) for m in metrics.values()),
                f"{label} metric values are finite",
            )


def check_corruption_detected(sizes) -> None:
    import workloads

    Xfit, yfit, rows, _labels = workloads.serve_data(sizes)
    model, handle, _fit_s, _setup_s, ok = workloads.serve_setup(sizes, Xfit, yfit, rows)
    try:
        check(ok, "tiny service primes its store")
        out = workloads.Outcome()
        ids = np.arange(sizes.pool)
        phases = [workloads.measured(handle, model, rows, ids, None, None, False, out, "drain")]
        check(not out.problems, "tiny drain hits the store and never the memo")
        classifier = handle.router.queues[0].classifier
        rng = np.random.default_rng(0)
        workloads.check_decisions(classifier, rows, phases, sizes, rng, out)
        check(not out.problems, "intact served decisions pass the output check")

        corrupted = dataclasses.replace(phases[0], decisions=phases[0].decisions.copy())
        corrupted.decisions[5] = np.nextafter(corrupted.decisions[5], np.inf)
        bad = workloads.Outcome()
        workloads.check_decisions(classifier, rows, [corrupted], sizes, rng, bad)
        check(
            bad.phases["identity_check"].failed == 1 and bool(bad.problems),
            "one decision corrupted by one ulp fails the output check",
        )
    finally:
        handle.close()


def main() -> int:
    run.import_package()
    import workloads

    sizes = dataclasses.replace(workloads.FULL, **TINY)
    check_outputs(sizes)
    check_corruption_detected(sizes)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
