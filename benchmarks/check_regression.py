"""Benchmark regression gate: compare fresh BENCH_*.json against baselines.

CI has produced ``BENCH_approx/serving/encoding.json`` artifacts for
several PRs, but until this gate they were upload-only: a change that halved
a throughput or broke a byte-identicality contract would merge silently as
long as the producing script exited zero.  This script turns the artifacts
into a gate:

* committed baselines live in ``benchmarks/baselines/BENCH_*.json``;
* each benchmark declares a handful of *gated metrics* with per-metric
  tolerance rules (see ``METRIC_RULES``):

  - ``ratio``  : fresh >= tolerance x baseline (throughputs, speedups).
    The default tolerance of 0.7 absorbs runner-to-runner noise while still
    catching real regressions;
  - ``max``    : fresh <= baseline / tolerance (latencies);
  - ``below``  : fresh <= tolerance, an absolute cap independent of the
    baseline (for error metrics whose baseline sits near zero, where a
    baseline-relative band would be one quantum away from failure);
  - ``true``   : the flag must be (still) true -- byte-identicality and
    contract booleans get no tolerance at all;
  - ``exact``  : integer bookkeeping (pair counts) must match exactly: a
    drifting pair count means the compute plan changed shape, which is a
    correctness review, not noise.

After an intentional change (new workload shape, a faster path that shifts
counts), refresh the baselines and commit the diff::

    python benchmarks/bench_approx.py   --out BENCH_approx.json
    python benchmarks/bench_serving.py  --out BENCH_serving.json --queries 512 --train-size 96 --landmarks 32
    python benchmarks/bench_serving.py  --scenario persistence --out BENCH_persistence.json --queries 512 --train-size 96 --landmarks 32
    python benchmarks/bench_encoding.py --out BENCH_encoding.json
    python benchmarks/check_regression.py --update-baselines

Run with:  python benchmarks/check_regression.py [--bench-dir .] [--update-baselines]
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

BASELINE_DIR = Path(__file__).resolve().parent / "baselines"


@dataclass(frozen=True)
class Metric:
    """One gated metric inside a benchmark artifact.

    ``path`` is a dotted JSON path; a ``records[...]`` segment selects the
    first list entry whose items match the given key=value filters, e.g.
    ``records[mode=batched,batch_size=32].speedup_vs_per_point``.
    """

    path: str
    rule: str  # "ratio" | "max" | "below" | "true" | "exact"
    tolerance: float = 0.7


# Deterministic bookkeeping (pair and simulation counts, byte-identicality
# flags) gets exact / near-exact rules: it regresses only when the code
# does.  Anything with wall-clock in it -- absolute throughputs and
# latencies, but also speedups, which shift with the runner's core count and
# contention -- gets the loose ABS band: the committed baselines were
# produced on a developer machine, so these rules exist to catch
# order-of-magnitude cliffs, not percent-level drift.  (The producing
# scripts additionally enforce their own machine-independent contracts --
# bench_serving/bench_encoding fail below 2x speedup, bench_approx above a
# 0.05 AUC gap -- before this gate even runs.)
ABS = 0.35  # tolerance for wall-clock-derived metrics

METRIC_RULES: dict[str, list[Metric]] = {
    "BENCH_approx.json": [
        Metric("exact.pairs", "exact"),
        Metric("nystroem.fit_pairs", "exact"),
        Metric("delta.speedup", "ratio", tolerance=ABS),
        Metric("delta.pair_reduction", "ratio", tolerance=0.999),
        # Absolute cap (the benchmark's own --max-auc-gap contract): the
        # baseline gap is ~0.002, one AUC quantum on a 128-point test set,
        # so a baseline-relative band would flap on last-ulp kernel changes.
        Metric("delta.auc_gap", "below", tolerance=0.05),
    ],
    "BENCH_serving.json": [
        Metric("ok", "true"),
        Metric("acceptance_speedup", "ratio", tolerance=ABS),
        Metric(
            "records[mode=queue,max_batch=32,memoize=True].byte_identical", "true"
        ),
        Metric(
            "records[mode=queue,max_batch=32,memoize=True].p99_latency_ms",
            "max",
            tolerance=ABS,
        ),
    ],
    "BENCH_persistence.json": [
        Metric("ok", "true"),
        Metric("byte_identical", "true"),
        # Warm restarts must stay simulation-free and prefetch every
        # snapshotted state; a drifting count means warm-up or the snapshot
        # round-trip changed shape.
        Metric("warm.simulations", "exact"),
        Metric("warm_loaded_keys", "exact"),
        # Absolute cap (the benchmark's own --max-warm-p99-ratio contract):
        # the warm restart must beat the cold boot's p99 outright, so a
        # baseline-relative band would let the advantage erode to parity.
        Metric("warm_vs_cold_p99", "below", tolerance=0.9),
        Metric("warm.p99_latency_ms", "max", tolerance=ABS),
    ],
    "BENCH_encoding.json": [
        Metric("ok", "true"),
        Metric("acceptance_speedup", "ratio", tolerance=ABS),
        Metric("records[mode=batched,batch_size=32].byte_identical", "true"),
        Metric("records[mode=cold-queue].throughput_rps", "ratio", tolerance=ABS),
        Metric("records[mode=cold-queue].p99_latency_ms", "max", tolerance=ABS),
    ],
}


def _select_record(records: list, filters: str):
    """First list entry matching every ``key=value`` filter."""
    wanted = {}
    for clause in filters.split(","):
        key, _, raw = clause.partition("=")
        if raw in ("True", "False"):
            value: object = raw == "True"
        else:
            try:
                value = int(raw)
            except ValueError:
                value = raw
        wanted[key] = value
    for record in records:
        if all(record.get(k) == v for k, v in wanted.items()):
            return record
    raise KeyError(f"no record matches {wanted!r}")


def lookup(payload: dict, path: str):
    """Resolve a dotted path with optional ``[key=value,...]`` list selectors."""
    node = payload
    for part in path.split("."):
        name, bracket, rest = part.partition("[")
        node = node[name]
        if bracket:
            node = _select_record(node, rest.rstrip("]"))
    return node


def check_file(fresh_path: Path, baseline_path: Path, metrics: list[Metric]) -> list[str]:
    """Compare one fresh artifact against its baseline; returns failures."""
    fresh = json.loads(fresh_path.read_text())
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for metric in metrics:
        try:
            fresh_value = lookup(fresh, metric.path)
            base_value = lookup(baseline, metric.path)
        except KeyError as exc:
            failures.append(f"{fresh_path.name}:{metric.path}: missing metric ({exc})")
            continue
        label = f"{fresh_path.name}:{metric.path}"
        if metric.rule == "true":
            ok = bool(fresh_value)
            detail = f"got {fresh_value!r}, must be true"
        elif metric.rule == "exact":
            ok = fresh_value == base_value
            detail = f"got {fresh_value!r}, baseline {base_value!r} (must match)"
        elif metric.rule == "ratio":
            ok = float(fresh_value) >= metric.tolerance * float(base_value)
            detail = (
                f"got {float(fresh_value):.4g}, needs >= {metric.tolerance} x "
                f"baseline {float(base_value):.4g}"
            )
        elif metric.rule == "max":
            ok = float(fresh_value) <= float(base_value) / metric.tolerance
            detail = (
                f"got {float(fresh_value):.4g}, needs <= baseline "
                f"{float(base_value):.4g} / {metric.tolerance}"
            )
        elif metric.rule == "below":
            ok = float(fresh_value) <= metric.tolerance
            detail = (
                f"got {float(fresh_value):.4g}, needs <= absolute cap "
                f"{metric.tolerance}"
            )
        else:  # pragma: no cover - spec typo guard
            raise ValueError(f"unknown rule {metric.rule!r}")
        status = "ok " if ok else "FAIL"
        print(f"  [{status}] {label} ({metric.rule}): {detail}")
        if not ok:
            failures.append(f"{label}: {detail}")
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--bench-dir",
        type=Path,
        default=Path("."),
        help="directory holding the freshly produced BENCH_*.json files",
    )
    parser.add_argument(
        "--update-baselines",
        action="store_true",
        help="copy the fresh artifacts over benchmarks/baselines/ instead of gating",
    )
    args = parser.parse_args()

    if args.update_baselines:
        BASELINE_DIR.mkdir(exist_ok=True)
        for name in METRIC_RULES:
            source = args.bench_dir / name
            if not source.exists():
                raise SystemExit(f"cannot update baselines: {source} does not exist")
            shutil.copy(source, BASELINE_DIR / name)
            print(f"baseline updated: {BASELINE_DIR / name}")
        return

    failures: list[str] = []
    for name, metrics in METRIC_RULES.items():
        fresh_path = args.bench_dir / name
        baseline_path = BASELINE_DIR / name
        if not baseline_path.exists():
            failures.append(f"{name}: no committed baseline at {baseline_path}")
            continue
        if not fresh_path.exists():
            failures.append(f"{name}: fresh artifact missing at {fresh_path}")
            continue
        print(f"{name}:")
        failures.extend(check_file(fresh_path, baseline_path, metrics))

    if failures:
        print(
            f"\n{len(failures)} benchmark regression(s); if intentional, rerun the "
            "benchmarks and `python benchmarks/check_regression.py "
            "--update-baselines` (see README).",
            file=sys.stderr,
        )
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        raise SystemExit(1)
    print("\nOK: all benchmarks within tolerance of committed baselines")


if __name__ == "__main__":
    main()
