"""In-memory span tracer that times calls into the package's layers.

The benchmark traces from its own files: :func:`install` replaces each
layer's public functions *at the name their caller looks up* (a class
attribute for methods, a module global for functions imported by name) with
a wrapper that records a span.  Spans live in memory with a per-thread
parent stack, so the coalescer thread's flush and the generator thread's
submits each build their own trees.  A span's self time is its duration
minus the time its child spans cover.

Exact counts of NumPy work (``einsum`` calls, SVD/QR calls) come from
counting copies of the ``numpy`` namespace installed as ``np`` in the MPS
modules; every other attribute resolves to the real NumPy object, so the
numerics are untouched.
"""

from __future__ import annotations

import functools
import threading
import time
import types
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

#: Layers in report order; ``unattributed`` is the window remainder.
LAYERS = (
    "serving",
    "core",
    "approx",
    "engine",
    "backends",
    "circuits",
    "mps",
    "svm",
)


@dataclass
class Span:
    layer: str
    name: str
    thread: int
    start: float
    end: float = 0.0
    child_s: float = 0.0
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Collects spans and NumPy call counts while :attr:`active`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.active = False
        self.einsum_calls = 0
        self.linalg_calls = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, name: str, fn, note=None):
        """``fn`` wrapped to record a span; ``note(span, args, kwargs, result)``
        may attach exact counts taken from the call's inputs or result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(layer, name, threading.get_ident(), time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
                tracer.spans.append(span)
            if note is not None:
                note(span, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, layer: str, name: str, note=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper (undone by :meth:`uninstall`)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(layer, name, original, note))
        self._restore.append(lambda: setattr(owner, attr, original))

    def count_numpy(self, module) -> None:
        """Install a counting copy of NumPy as ``module.np``."""
        tracer = self

        def counted(fn, counter):
            @functools.wraps(fn)
            def call(*args, **kwargs):
                if tracer.active:
                    with tracer._lock:
                        setattr(tracer, counter, getattr(tracer, counter) + 1)
                return fn(*args, **kwargs)

            return call

        linalg = types.ModuleType("numpy.linalg")
        linalg.__dict__.update(vars(np.linalg))
        linalg.svd = counted(np.linalg.svd, "linalg_calls")
        linalg.qr = counted(np.linalg.qr, "linalg_calls")
        proxy = types.ModuleType("numpy")
        proxy.__dict__.update(vars(np))
        proxy.einsum = counted(np.einsum, "einsum_calls")
        proxy.linalg = linalg
        original = module.np
        module.np = proxy
        self._restore.append(lambda: setattr(module, "np", original))

    def uninstall(self) -> None:
        self.active = False
        while self._restore:
            self._restore.pop()()


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced layer boundary of the ``repro`` package."""
    import repro.backends.base as backends_base
    import repro.engine.engine as engine_mod
    import repro.mps.batched as mps_batched
    import repro.mps.encoding as mps_encoding
    import repro.mps.mps as mps_mps
    import repro.mps.tensor_ops as mps_tensor_ops
    import repro.approx.nystroem as approx_nystroem
    from repro.approx import LinearSVC, NystroemFeatureMap, StreamingNystroemClassifier
    from repro.core import QuantumKernelInferenceEngine
    from repro.engine import KernelEngine
    from repro.mps import StackedStateBlock
    from repro.serving import ServingHandle
    from repro.svm import PrecomputedKernelSVC

    def note_classify(span, args, kwargs, result):
        X = np.asarray(args[1], dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        span.info["rows"] = int(X.shape[0])
        span.info["keys"] = [row.tobytes() for row in X]

    def note_engine(span, args, kwargs, result):
        span.info["hits"] = int(getattr(result, "cache_hits", 0))
        span.info["misses"] = int(getattr(result, "cache_misses", 0))

    def note_simulate_batch(span, args, kwargs, result):
        span.info["simulations"] = int(result.num_circuits)

    def note_simulate(span, args, kwargs, result):
        span.info["simulations"] = 1

    def note_pairs(span, args, kwargs, result):
        span.info["pairs"] = int(result.num_pairs)

    tracer.patch(ServingHandle, "submit", "serving", "serving.submit")
    tracer.patch(QuantumKernelInferenceEngine, "fit", "core", "core.fit")
    tracer.patch(StreamingNystroemClassifier, "classify", "approx", "approx.classify",
                 note_classify)
    tracer.patch(approx_nystroem, "rowwise_matmul", "approx", "approx.project")
    tracer.patch(LinearSVC, "decision_function", "approx", "approx.project")
    tracer.patch(NystroemFeatureMap, "fit", "approx", "approx.nystroem_fit")
    tracer.patch(KernelEngine, "kernel_rows", "engine", "engine.kernel_rows", note_engine)
    tracer.patch(KernelEngine, "gram", "engine", "engine.gram", note_engine)
    tracer.patch(KernelEngine, "encode_rows", "engine", "engine.encode_rows")
    tracer.patch(engine_mod, "build_feature_map_circuit", "circuits", "circuits.build")
    tracer.patch(backends_base.Backend, "simulate_batch", "backends",
                 "backends.simulate_batch", note_simulate_batch)
    tracer.patch(backends_base.Backend, "simulate", "backends", "backends.simulate",
                 note_simulate)
    tracer.patch(backends_base.Backend, "inner_product_block", "backends",
                 "backends.inner_product_block", note_pairs)
    tracer.patch(backends_base.Backend, "inner_product_batch", "backends",
                 "backends.inner_product_batch", note_pairs)
    tracer.patch(backends_base, "encode_circuits", "mps", "mps.encode")
    tracer.patch(backends_base, "batched_overlaps", "mps", "mps.overlap_batch")
    tracer.patch(StackedStateBlock, "overlaps", "mps", "mps.overlap")
    tracer.patch(PrecomputedKernelSVC, "fit", "svm", "svm.fit")
    for module in (mps_batched, mps_encoding, mps_mps, mps_tensor_ops):
        tracer.count_numpy(module)
    return tracer


def in_windows(span: Span, windows) -> bool:
    return any(lo <= span.start and span.end <= hi for lo, hi in windows)


def layer_self_seconds(spans: List[Span]) -> Dict[str, float]:
    totals = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        totals[span.layer] += span.self_s
    return totals


def spans_named(spans: List[Span], name: str) -> List[Span]:
    return [s for s in spans if s.name == name]


def total(spans: List[Span], name: str) -> float:
    return float(sum(s.duration for s in spans if s.name == name))


def info_sum(spans: List[Span], key: str, name: Optional[str] = None) -> int:
    return int(
        sum(
            int(s.info.get(key, 0))
            for s in spans
            if name is None or s.name == name
        )
    )
