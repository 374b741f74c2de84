"""The benchmark workloads: ``train`` and ``serve_warm``.

Both use one ansatz -- 8 features, interaction distance d=2, 2 layers,
gamma=0.5, which gives bond dimension chi=16 -- and rows of one fixed
``generate_elliptic_like`` dataset.  The rows and the model are fixed; the
run's seed drives only the order of the rows and the arrival schedule, so
``test_auc`` is a property of the commit.  Each workload returns an
:class:`Outcome`: the end-to-end metrics, per-phase operation counts, the
result of its output checks and, in a traced run, the per-layer metrics.

* ``train`` fits ``QuantumKernelInferenceEngine(ANSATZ)`` back to back on the
  same training split: n encodes, n(n-1)/2 Gram overlaps, then SMO.  It is
  the only workload that runs the Gram plan and SMO, and it touches no
  serving layer.
* ``serve_warm`` sends rows whose states were written to the replica's store
  during set-up through ``repro.serve`` (one replica, in-process, ``static``
  policy).  ``handle.swap(model)`` with the identical model before every
  measured phase keeps the store but empties the per-slot memo, so every
  request is a memo miss and a store hit with zero simulations: the flush is
  the landmark overlap sweep plus projection.

``serve_warm`` alternates open-loop phases -- a Poisson stream at a fixed
rate (0.4 of the drain throughput measured at the commit that defined the
benchmark, at the reference speed), timed from each request's due time --
with drains of a fixed backlog that give ``sat_rps``.
"""

from __future__ import annotations

import functools
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import AnsatzConfig, ServingConfig, serve
from repro.approx import NystroemConfig
from repro.circuits import build_feature_map_circuit
from repro.core import QuantumKernelInferenceEngine
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like
from repro.statevector import StatevectorSimulator
from repro.svm import FeatureScaler
from repro.svm.metrics import roc_auc_score

from layertrace import (
    LAYERS,
    Tracer,
    in_windows,
    info_sum,
    layer_self_seconds,
    spans_named,
    total,
)

ANSATZ = AnsatzConfig(num_features=8, interaction_distance=2, layers=2, gamma=0.5)
RESULT_TIMEOUT_S = 60.0
#: Largest |served - oracle| decision difference accepted.  The MPS kernel
#: agrees with the dense statevector oracle to ~1e-10 at 8 qubits; the
#: projection through K_mm^{-1/2} amplifies that by at most ~1e3 here.
ORACLE_DECISION_TOL = 1e-6
#: Largest |Gram entry - statevector oracle| accepted on ``train``.
ORACLE_GRAM_TOL = 1e-8
#: Seed of the dataset, splits and model every run uses.
MODEL_SEED = 0
#: Share of ``--seconds`` ``serve_warm`` spends in the open loop (the rest drains).
OPEN_SHARE = 0.65
#: Median time of :func:`reference_s` on the 2-core x86 box the benchmark
#: was defined on.  Every timed end-to-end metric is scaled to that speed.
REFERENCE_S = 0.14
#: ``train`` runs one of its set-ups before every this many fits.
SETUP_EVERY = 2


@dataclass(frozen=True)
class Sizes:
    """The workload sizes; :data:`FULL` is the benchmark, ``smoke.py`` shrinks it."""

    #: Set-ups per run; ``setup_s`` is their median.
    setups: int = 8
    serve_setups: int = 4
    # train
    train_rows: int = 128
    test_rows: int = 128
    #: Rows of the fixed dataset the train/test split is drawn from.
    train_pool: int = 4096
    warmup_rows: int = 96
    gram_check_rows: int = 24
    # serve_warm
    fit_rows: int = 128
    landmarks: int = 32
    #: Rows replayed from the store; also the drain backlog.
    pool: int = 320
    #: Open-loop arrival rate (requests/s at the reference speed): 0.4 of
    #: ``drain_rps``; perfbench/README.md says why not half.
    rate: float = 180.0
    #: About the median drain throughput (requests/s at the reference speed)
    #: of the A/A runs that defined the benchmark; only sizes how many
    #: backlogs fill the drain share.
    drain_rps: float = 450.0
    #: Consecutive open-loop sample groups whose p50s ``p50_ms`` is the median of.
    latency_chunks: int = 10
    oracle_rows: int = 16


FULL = Sizes()


@dataclass
class Phase:
    attempted: int = 0
    succeeded: int = 0
    failed: int = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        if ok:
            self.succeeded += 1
        else:
            self.failed += 1


@dataclass
class Outcome:
    metrics: Dict[str, float] = field(default_factory=dict)
    phases: Dict[str, Phase] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    diagnostics: Dict[str, object] = field(default_factory=dict)

    def phase(self, name: str) -> Phase:
        return self.phases.setdefault(name, Phase())

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.phases.values())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def statevector(row: np.ndarray) -> np.ndarray:
    """Dense oracle state of one scaled row (independent of the MPS code)."""
    sim = StatevectorSimulator(ANSATZ.num_features)
    sim.apply_circuit(build_feature_map_circuit(np.asarray(row, dtype=float), ANSATZ))
    return sim.statevector.ravel()


def oracle_kernel(rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
    a = np.array([statevector(r) for r in rows_a])
    b = np.array([statevector(r) for r in rows_b])
    return np.abs(a.conj() @ b.T) ** 2


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
_REF = np.random.default_rng(7)
_REF_ENV = _REF.standard_normal((64, 16, 16))
_REF_STACK = _REF.standard_normal((64, 16, 2, 16))
_REF_GATES = _REF.standard_normal((64, 1, 4, 4))
_REF_THETA = _REF.standard_normal((64, 16, 4, 16))
_REF_SQUARE = _REF.standard_normal((32, 32))


def reference_s() -> float:
    """Time a fixed NumPy loop shaped like the kernel work (benchmark code only).

    Overlap-style ``einsum`` contractions, broadcast gate ``matmul``, small
    QR factorisations and an interpreter loop.  The shared machine's speed
    drifts by up to ~1.7x over minutes; timing this loop between units of
    measured work (fits, set-ups, serving phases) lets a run report its
    times at a fixed reference speed: wall time times ``REFERENCE_S`` over
    the run's median reference time.
    """
    t0 = time.perf_counter()
    for _ in range(50):
        tmp = np.einsum("zab,zapc->zbpc", _REF_ENV, _REF_STACK)
        np.einsum("zbpc,zbpd->zcd", tmp, _REF_STACK)
        np.matmul(_REF_GATES, _REF_THETA)
        for _ in range(8):
            np.linalg.qr(_REF_SQUARE)
        acc = 0
        for i in range(3000):
            acc += i
    return time.perf_counter() - t0


class SpeedProbe:
    """:func:`reference_s` samples taken between units of measured work."""

    def __init__(self) -> None:
        self.times = [reference_s()]

    def sample(self) -> None:
        self.times.append(reference_s())

    @property
    def scale(self) -> float:
        """Multiply a wall time by this to get the time at the reference speed."""
        return REFERENCE_S / statistics.median(self.times)


def train_data(sizes: Sizes, seed: int):
    """The fixed class-balanced train/test split; ``seed`` orders the training rows."""
    n = sizes.train_rows + sizes.test_rows
    data = balanced_subsample(
        generate_elliptic_like(
            DatasetSpec(
                num_samples=sizes.train_pool,
                num_features=ANSATZ.num_features,
                positive_fraction=0.4,
                seed=MODEL_SEED,
            )
        ),
        n,
        seed=MODEL_SEED,
    )
    split = np.random.default_rng(MODEL_SEED).permutation(n)
    X, y = data.features[split], data.labels[split]
    k = sizes.train_rows
    order = np.random.default_rng([seed, 2]).permutation(k)
    return X[:k][order], y[:k][order], X[k:], y[k:]


def run_train(sizes: Sizes, seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    out = Outcome()
    n = sizes.train_rows
    probe = SpeedProbe()

    def timed(work: Callable[[], object]):
        """``(result or raised exception, wall seconds, window)``, then a reference time."""
        t0 = time.perf_counter()
        try:
            result = work()
        except Exception as exc:
            result = exc
        t1 = time.perf_counter()
        probe.sample()
        return result, t1 - t0, (t0, t1)

    def set_up():
        split = train_data(sizes, seed)
        warmup = sizes.warmup_rows
        QuantumKernelInferenceEngine(ANSATZ).fit(split[0][:warmup], split[1][:warmup])
        return split

    setup_times: List[float] = []

    def timed_set_up():
        split, wall, _ = timed(set_up)
        ok = not isinstance(split, Exception)
        out.phase("setup").add(ok)
        if not ok:
            out.problems.append(f"set-up raised {split!r}")
            return None
        setup_times.append(wall)
        return split

    split = timed_set_up()
    if split is None:
        return out
    Xtr, ytr, Xte, yte = split
    traced_times: List[float] = []
    untraced_times: List[float] = []
    windows: List[Tuple[float, float]] = []
    model = None
    start = time.perf_counter()
    # A traced run alternates traced and untraced fits, so the tracing
    # overhead is measured on fits interleaved with the traced ones.
    while time.perf_counter() - start < seconds or len(untraced_times) < 2:
        fits = len(traced_times) + len(untraced_times)
        if len(setup_times) < sizes.setups and fits >= SETUP_EVERY * len(setup_times):
            # The other set-ups run between fits, spread over the run, so
            # they sample the same stretches of the machine as the fits.
            if timed_set_up() is None:
                return out
        traced = tracer is not None and len(traced_times) <= len(untraced_times)
        candidate = QuantumKernelInferenceEngine(ANSATZ)

        def fit():
            if tracer is not None:
                tracer.active = traced
            try:
                candidate.fit(Xtr, ytr)
            finally:
                if tracer is not None:
                    tracer.active = False

        raised, wall, window = timed(fit)
        if raised is not None:  # a failed fit is a failed operation
            out.phase("fit").add(False)
            out.problems.append(f"fit raised {raised!r}")
            return out
        if traced:
            traced_times.append(wall)
            windows.append(window)
        else:
            untraced_times.append(wall)
        sims = candidate.engine.backend.lifetime_summary()["num_simulations"]
        if sims != n:
            out.problems.append(f"fit ran {sims} simulations, expected n={n}")
        out.phase("fit").add(sims == n)
        model = candidate

    auc = roc_auc_score(yte, model.decision_function(Xte))

    # Output check: a seeded sample of Gram entries against the dense
    # statevector oracle.  The states come from the fitted engine's store,
    # so they are the ones the timed fit produced.
    idx = np.sort(
        np.random.default_rng([seed, 3]).choice(n, sizes.gram_check_rows, replace=False)
    )
    Xs = FeatureScaler().fit_transform(Xtr)[idx]
    gram = model.engine.gram(Xs)
    if gram.num_simulations != 0:
        out.problems.append("Gram check re-simulated rows the fit had stored")
    diff = np.abs(gram.matrix - oracle_kernel(Xs, Xs))
    check = out.phase("gram_oracle_check")
    for value in diff[np.triu_indices(len(idx), 1)]:
        check.add(bool(value <= ORACLE_GRAM_TOL))
    if check.failed:
        out.problems.append(
            f"{check.failed} Gram entries differ from the oracle (max {diff.max():.3g})"
        )
    out.diagnostics["gram_oracle_max_diff"] = float(diff.max())

    # A training job is this workload's request: p50_ms is the median fit
    # latency and sat_rps the training rows it fits per second, both at the
    # reference speed.  The wall-clock figures are diagnostics.
    scale = probe.scale
    train_s = scale * statistics.median(untraced_times)
    out.metrics = {
        "setup_s": scale * statistics.median(setup_times),
        "test_auc": auc,
        "p50_ms": 1e3 * train_s,
        "sat_rps": n / train_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    out.diagnostics.update(
        {
            "train_s": train_s,
            "speed_scale": scale,
            "train_wall_s": statistics.median(untraced_times),
            "setup_wall_s": statistics.median(setup_times),
            "fit_times": untraced_times,
            "setup_times": setup_times,
            "reference_times": probe.times,
        }
    )
    if tracer is not None:
        out.metrics.update(train_layers(tracer, windows, n, traced_times, untraced_times, out))
    return out


def train_layers(tracer, windows, n, traced_times, untraced_times, out) -> Dict[str, float]:
    spans = [s for s in tracer.spans if in_windows(s, windows)]
    fits = len(windows)
    rows = n * fits
    layers = base_layers(spans, windows, rows, tracer)
    pairs = info_sum(spans, "pairs")
    sims = info_sum(spans, "simulations")
    if sims != n * fits:
        out.problems.append(f"traced fits ran {sims} simulations, expected {n * fits}")
    if pairs != fits * n * (n - 1) // 2:
        out.problems.append(f"traced fits evaluated {pairs} overlap pairs")
    svm_fits = [s.duration for s in spans_named(spans, "svm.fit")]
    layers.update(
        {
            "mps.overlap_batch_s": total(spans, "mps.overlap_batch") / fits,
            "svm.fit_s": statistics.median(svm_fits),
            "approx.nystroem_fit_s": 0.0,
            "trace.overhead_pct": 100.0
            * (statistics.median(traced_times) / statistics.median(untraced_times) - 1.0),
            # No serving layer runs on this workload.
            "serving.wait_ms_p50": 0.0,
            "serving.batch_mean": 0.0,
            "serving.flushes": 0.0,
            "serving.self_ms_per_req": 0.0,
            "approx.classify_ms_per_flush": 0.0,
            "approx.project_ms_per_row": 0.0,
        }
    )
    return layers


# ----------------------------------------------------------------------
# serve_warm
# ----------------------------------------------------------------------
@dataclass
class Served:
    """The benchmark's copy of every served response of one phase."""

    row_ids: np.ndarray
    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    decisions: np.ndarray
    ok: np.ndarray
    window: Tuple[float, float]
    traced: bool

    @property
    def duration(self) -> float:
        return self.window[1] - self.window[0]


def _stamp(done: np.ndarray, i: int, _future) -> None:
    done[i] = time.perf_counter()


def run_phase(handle, rows: np.ndarray, row_ids: np.ndarray, offsets: Optional[np.ndarray],
              traced: bool) -> Served:
    """Send ``rows``: on the ``offsets`` schedule (open loop) or all at once (drain)."""
    n = len(row_ids)
    due = np.zeros(n)
    sent = np.zeros(n)
    done = np.zeros(n)
    futures = []
    t0 = time.perf_counter() + (0.01 if offsets is not None else 0.0)
    for i in range(n):
        if offsets is not None:
            due[i] = t0 + offsets[i]
            delay = due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        sent[i] = time.perf_counter()
        if offsets is None:
            due[i] = t0
        future = handle.submit(rows[row_ids[i]])
        future.add_done_callback(functools.partial(_stamp, done, i))
        futures.append(future)
    decisions = np.full(n, np.nan)
    ok = np.zeros(n, dtype=bool)
    for i, future in enumerate(futures):
        try:
            served = future.result(timeout=RESULT_TIMEOUT_S)
        except Exception:
            continue
        decisions[i] = served.decision_value
        ok[i] = True
    end = float(done.max()) if n else t0
    return Served(row_ids, due, sent, done, decisions, ok, (t0, end), traced)


def poisson_offsets(rng: np.random.Generator, rate: float, n: int) -> np.ndarray:
    gaps = rng.exponential(1.0 / rate, size=n)
    gaps[0] = 0.0
    return np.cumsum(gaps)


def replica_counters(handle) -> Dict[str, int]:
    """The live replica's own counters: simulations, store and memo hits."""
    queue = handle.router.queues[0]
    engine = queue.classifier.feature_map.engine
    stats = engine.store.stats()
    return {
        "simulations": int(engine.backend.lifetime_summary()["num_simulations"]),
        "store_hits": int(stats.hits),
        "store_misses": int(stats.misses),
        "memo_hits": int(queue.memo_hits),
    }


def delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {k: after[k] - before[k] for k in after}


def serve_data(sizes: Sizes):
    """The served model's training rows and the traffic pool, both fixed.

    Every run serves the same model on the same rows -- the first rows of
    one fixed dataset and the ``pool`` rows after them -- so run-to-run
    differences come from the order and schedule the seed draws and from
    the machine, and ``test_auc`` is the same for every seed.
    """
    data = generate_elliptic_like(
        DatasetSpec(
            num_samples=sizes.fit_rows + sizes.pool,
            num_features=ANSATZ.num_features,
            positive_fraction=0.4,
            seed=MODEL_SEED,
        )
    )
    k = sizes.fit_rows
    return data.features[:k], data.labels[:k], data.features[k:], data.labels[k:]


def serve_setup(sizes: Sizes, Xfit, yfit, rows: np.ndarray):
    """Fit the served model, stand the service up and write ``rows`` to its store."""
    t0 = time.perf_counter()
    model = QuantumKernelInferenceEngine(
        ANSATZ,
        approximation=NystroemConfig(num_landmarks=sizes.landmarks, strategy="greedy", seed=0),
    )
    t_fit = time.perf_counter()
    model.fit(Xfit, yfit)
    fit_s = time.perf_counter() - t_fit
    handle = serve(model, ServingConfig(), workers=0)
    futures = handle.submit_many(rows)
    ok = all(f.exception(timeout=RESULT_TIMEOUT_S) is None for f in futures)
    handle.swap(model)
    return model, handle, fit_s, time.perf_counter() - t0, ok


def run_serve(sizes: Sizes, seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    out = Outcome()
    rng = np.random.default_rng([seed, 17])
    open_s = OPEN_SHARE * seconds
    n_open = max(1, int(round(open_s * sizes.rate)))
    drains = max(1, int(round((seconds - open_s) * sizes.drain_rps / sizes.pool)))
    # A traced run precedes every traced drain with an untraced one, which
    # measures the tracing overhead on interleaved, identical work.
    passes = [False, True] if tracer is not None else [False]
    Xfit, yfit, rows, labels = serve_data(sizes)

    # The arrival schedule (at unit rate) and every phase's row order are
    # drawn before the run; the open loop replays the pool in phases of
    # ``pool`` requests.
    open_ids = [rng.permutation(sizes.pool) for _ in range(-(-n_open // sizes.pool))]
    open_ids[-1] = open_ids[-1][: n_open - sizes.pool * (len(open_ids) - 1)]
    drain_ids = [rng.permutation(sizes.pool) for _ in range(drains * len(passes))]
    schedules = [poisson_offsets(rng, 1.0, len(ids)) for ids in open_ids]

    probe = SpeedProbe()
    setup_times, fit_times, setup_windows = [], [], []

    def set_up():
        """One timed set-up of a service: ``(model, handle)``."""
        if tracer is not None:
            counts = tracer.einsum_calls, tracer.linalg_calls
            tracer.active = True
        t0 = time.perf_counter()
        model, handle, fit_s, setup_s, ok = serve_setup(sizes, Xfit, yfit, rows)
        setup_windows.append((t0, time.perf_counter()))
        if tracer is not None:
            tracer.active = False
            # The NumPy call counts are per served row; set-up work is not counted.
            tracer.einsum_calls, tracer.linalg_calls = counts
        setup_times.append(setup_s)
        fit_times.append(fit_s)
        out.phase("setup").add(ok)
        probe.sample()
        return model, handle

    # The first set-up is the service measured.  The others set up and close
    # a service of their own between phases, spread over the run, so their
    # median samples the same stretches of the machine as the phases do.
    model, handle = set_up()
    rounds = max(len(open_ids), len(drain_ids))
    every = max(1, rounds // sizes.serve_setups)
    # Open-loop phases and drains alternate, so both metrics, and the speed
    # scale, sample the same stretches of the machine.
    open_phases: List[Served] = []
    drain_phases: List[Served] = []
    try:
        for k in range(rounds):
            if k and k % every == 0 and len(setup_times) < sizes.serve_setups:
                set_up()[1].close()
            if k < len(open_ids):
                # The rate is fixed at the reference speed: on a machine
                # running slower than that, requests arrive slower too.
                offsets = schedules[k] / (sizes.rate * probe.scale)
                open_phases.append(measured(handle, model, rows, open_ids[k], offsets,
                                            tracer, True, out, "open_loop", probe))
            if k < len(drain_ids):
                drain_phases.append(measured(handle, model, rows, drain_ids[k], None, tracer,
                                             passes[k % len(passes)], out, "drain", probe))
        phases = open_phases + drain_phases
        check_decisions(handle.router.queues[0].classifier, rows, phases, sizes, rng, out)
    finally:
        handle.close()

    lat = np.concatenate([(p.done - p.due)[p.ok] for p in open_phases]) * 1e3
    late = np.concatenate([(p.sent - p.due)[p.ok] for p in open_phases]) * 1e3
    untraced = [p for p in drain_phases if not p.traced]
    # One decision per pool row; the identity check has shown every served
    # decision of a row to be the same bytes.
    by_row = np.full(sizes.pool, np.nan)
    for p in phases:
        by_row[p.row_ids[p.ok]] = p.decisions[p.ok]
    if np.isnan(by_row).any():
        out.problems.append("some pool rows were never served")
        by_row = np.nan_to_num(by_row)
    # Medians over sub-windows (runs of consecutive open-loop requests, and
    # single drains) keep a slow stretch of the shared machine from moving
    # the whole run's figure.
    sub_p50 = [float(np.percentile(c, 50)) for c in np.array_split(lat, sizes.latency_chunks)]
    sub_sat = [int(p.ok.sum()) / p.duration for p in untraced]
    # Timed figures are at the reference speed, like ``train``'s; the
    # wall-clock figures are diagnostics.
    scale = probe.scale
    out.metrics = {
        "setup_s": scale * statistics.median(setup_times),
        "test_auc": roc_auc_score(labels, by_row),
        "p50_ms": scale * statistics.median(sub_p50),
        "sat_rps": statistics.median(sub_sat) / scale,
        "peak_rss_mb": peak_rss_mb(),
    }
    out.diagnostics.update(
        {
            "setup_wall_s": statistics.median(setup_times),
            "p50_wall_ms": statistics.median(sub_p50),
            "sat_wall_rps": statistics.median(sub_sat),
            "sub_p50_ms": sub_p50,
            "sub_sat_rps": sub_sat,
            "setup_times": setup_times,
            "fit_times": fit_times,
            "open_loop_samples": int(len(lat)),
            "p99_ms": float(np.percentile(lat, 99)),
            "open_loop_rate_rps": sizes.rate,
            "open_loop_wall_rps": len(lat) / sum(p.duration for p in open_phases),
            "gen_late_p99_ms": float(np.percentile(late, 99)),
            "drain_backlog": sizes.pool,
            "drains": drains,
            "speed_scale": scale,
            "reference_times": probe.times,
        }
    )
    if tracer is not None:
        out.metrics.update(serve_layers(tracer, rows, open_phases, drain_phases, setup_windows))
    return out


def measured(handle, model, rows, ids, offsets, tracer, traced, out, name,
             probe: Optional[SpeedProbe] = None) -> Served:
    """One measured phase, with its workload-identity counts checked."""
    # Same model, fresh slot: the store survives, the memo starts empty.
    handle.swap(model)
    before = replica_counters(handle)
    if tracer is not None:
        tracer.active = traced
    phase = run_phase(handle, rows, ids, offsets, traced)
    if tracer is not None:
        tracer.active = False
    counts = delta(replica_counters(handle), before)
    record = out.phase(name)
    for ok in phase.ok:
        record.add(bool(ok))
    for key in ("memo_hits", "simulations", "store_misses"):
        if counts[key] != 0:
            out.problems.append(f"{name}: {counts[key]} {key}, expected 0")
    if probe is not None:
        probe.sample()
    return phase


def check_decisions(classifier, rows, phases: Sequence[Served], sizes: Sizes,
                    rng: np.random.Generator, out: Outcome) -> None:
    """Served decisions against a direct ``classify`` and against the oracle.

    Reads the benchmark's copy of the served results and checks every
    response.  A response that raised is already a failed operation of its
    phase and is not checked again.
    """
    row_ids = np.concatenate([p.row_ids for p in phases])
    decisions = np.concatenate([p.decisions for p in phases])
    served = np.flatnonzero(np.concatenate([p.ok for p in phases]))
    unique_ids = np.unique(row_ids[served])
    direct = dict(zip(unique_ids.tolist(), classifier.classify(rows[unique_ids]).decision_values))
    identity = out.phase("identity_check")
    for i in served:
        identity.add(decisions[i].tobytes() == direct[int(row_ids[i])].tobytes())
    if identity.failed:
        out.problems.append(f"{identity.failed} served decisions differ from classify()")

    sample = np.sort(rng.choice(served, min(sizes.oracle_rows, len(served)), replace=False))
    fmap = classifier.feature_map
    kernel = oracle_kernel(classifier.scale(rows[row_ids[sample]]), fmap.landmark_rows_)
    expected = classifier.model.decision_function(fmap.project_kernel_rows(kernel))
    diff = np.abs(decisions[sample] - expected)
    oracle = out.phase("oracle_check")
    for value in diff:
        oracle.add(bool(value <= ORACLE_DECISION_TOL))
    if oracle.failed:
        out.problems.append(
            f"{oracle.failed} served decisions off the oracle (max {np.nanmax(diff):.3g})"
        )
    out.diagnostics["oracle_max_diff"] = float(np.nanmax(diff))


def serve_layers(tracer: Tracer, rows, open_phases, drain_phases, setup_windows
                 ) -> Dict[str, float]:
    traced = open_phases + [p for p in drain_phases if p.traced]
    windows = [p.window for p in traced]
    spans = [s for s in tracer.spans if in_windows(s, windows)]
    requests = int(sum(p.ok.sum() for p in traced))
    layers = base_layers(spans, windows, requests, tracer)

    # Queueing metrics describe the open loop, where ``p50_ms`` is measured;
    # in a drain every request also waits behind the whole backlog.
    open_windows = [p.window for p in open_phases]
    flushes = [s for s in spans_named(spans, "approx.classify") if in_windows(s, open_windows)]
    waits, selfs = [], []
    for phase in open_phases:
        lo, hi = phase.window
        flush_of = {
            key: span
            for span in flushes
            if lo <= span.start and span.end <= hi
            for key in span.info["keys"]
        }
        for i in np.flatnonzero(phase.ok):
            span = flush_of[rows[phase.row_ids[i]].tobytes()]
            waits.append(span.start - phase.sent[i])
            selfs.append(phase.done[i] - phase.sent[i] - span.duration)
    nystroem = [s.duration for s in spans_named(tracer.spans, "approx.nystroem_fit")
                if in_windows(s, setup_windows)]
    untraced = [p for p in drain_phases if not p.traced]
    layers.update(
        {
            "serving.wait_ms_p50": 1e3 * float(np.percentile(waits, 50)),
            "serving.batch_mean": info_sum(flushes, "rows") / len(flushes),
            "serving.flushes": float(len(flushes)),
            "serving.self_ms_per_req": 1e3 * float(np.mean(selfs)),
            "approx.classify_ms_per_flush": 1e3 * total(flushes, "approx.classify")
            / len(flushes),
            "approx.project_ms_per_row": 1e3 * total(spans, "approx.project") / requests,
            "approx.nystroem_fit_s": statistics.median(nystroem),
            "mps.overlap_batch_s": total(spans, "mps.overlap_batch"),
            "svm.fit_s": total(spans, "svm.fit"),
            "trace.overhead_pct": 100.0 * (
                sum(p.duration for p in drain_phases if p.traced)
                / sum(p.duration for p in untraced) - 1.0
            ),
        }
    )
    return layers


def base_layers(spans, windows, rows: int, tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics every workload reports, over the traced window."""
    window_s = float(sum(hi - lo for lo, hi in windows))
    self_s = layer_self_seconds(spans)
    layers: Dict[str, float] = {}
    for layer in LAYERS:
        layers[f"share.{layer}"] = self_s[layer] / window_s
    layers["share.unattributed"] = 1.0 - sum(self_s.values()) / window_s
    hits = info_sum(spans, "hits", "engine.kernel_rows") + info_sum(spans, "hits", "engine.gram")
    misses = info_sum(spans, "misses", "engine.kernel_rows") + info_sum(
        spans, "misses", "engine.gram"
    )
    ms_per_row = 1e3 / max(1, rows)
    layers.update(
        {
            "trace.window_s": window_s,
            "engine.self_ms_per_row": self_s["engine"] * ms_per_row,
            "engine.store_hit_ratio": hits / max(1, hits + misses),
            "engine.store_hits": float(hits),
            "engine.store_misses": float(misses),
            "backends.self_ms_per_row": self_s["backends"] * ms_per_row,
            "backends.simulations": float(info_sum(spans, "simulations")),
            "backends.overlap_pairs": float(info_sum(spans, "pairs")),
            "circuits.build_ms_per_row": total(spans, "circuits.build") * ms_per_row,
            "mps.encode_ms_per_row": total(spans, "mps.encode") * ms_per_row,
            "mps.overlap_ms_per_row": total(spans, "mps.overlap") * ms_per_row,
            "mps.einsum_calls_per_row": tracer.einsum_calls / max(1, rows),
            "mps.linalg_calls_per_row": tracer.linalg_calls / max(1, rows),
        }
    )
    return layers
