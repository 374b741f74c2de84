"""Repository benchmark: ``train`` and ``serve_warm``.

Run from the repository root::

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
workload with every layer boundary wrapped (:mod:`layertrace`) and reports
the per-layer metrics instead.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the per-phase counts and diagnostics.  Metric names, units
and bounds are declared in ``BENCHMARK.json``; ``perfbench/README.md``
explains each metric, the layer it belongs to and the workload it moves on.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS/OpenMP thread, set before NumPy loads: the generator and the
# coalescer thread are the only threads that compete for the two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("train", "serve_warm")


def declared_metrics(trace: bool) -> dict:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def import_package():
    """Import ``repro`` from this checkout's ``src``, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """One benchmark run; returns the result object printed last."""
    import workloads
    from layertrace import Tracer, install

    sizes = sizes if sizes is not None else workloads.FULL
    tracer = install(Tracer()) if trace else None
    try:
        if workload == "train":
            outcome = workloads.run_train(sizes, seed, seconds, tracer)
        else:
            outcome = workloads.run_serve(sizes, seed, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    units = declared_metrics(trace)
    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        outcome.problems.append(f"metrics not measured: {missing}")
    return {
        "detail": {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "phases": {k: vars(v) for k, v in outcome.phases.items()},
            "problems": outcome.problems,
            "diagnostics": outcome.diagnostics,
        },
        "result": {
            "correct": not outcome.problems and outcome.failed == 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {
                name: {"value": float(outcome.metrics.get(name, float("nan"))), "unit": unit}
                for name, unit in units.items()
            },
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_package()
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report["detail"], sort_keys=True))
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
