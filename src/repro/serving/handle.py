"""One-call serving: ``repro.serve(model, config)`` -> :class:`ServingHandle`.

Standing a fleet up is otherwise a four-step dance -- extract a
``serving_payload()``, build an :class:`AsyncServingQueue` or
:class:`ReplicaRouter`, wire the telemetry endpoint, and attach an
:class:`~repro.control.AdaptiveController`.  :func:`serve` collapses that
into one call over one declarative :class:`~repro.config.ServingConfig`,
and :class:`ServingHandle` is the single object a deployment talks to
afterwards: ``submit`` traffic, ``swap`` models, read ``metrics``, steer
through ``controller``, ``close`` cleanly.

The handle is composition, not replacement: it builds exactly the
router/controller/endpoint objects a manual caller would, so everything the
test suites pin about those layers (byte-identical predictions, atomic
swaps, shed semantics) holds verbatim under the one-call surface.
"""

from __future__ import annotations

import gc
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..config import ServingConfig
from ..control import AdaptiveController
from ..exceptions import ServingError
from .queue import ServedPrediction
from .router import ReplicaRouter

__all__ = ["ServingHandle", "serve", "resolve_serving_payload"]


def resolve_serving_payload(model_or_payload) -> Dict:
    """A serving payload from whatever the caller has in hand.

    Accepts a ready payload mapping (passed through), or any object with a
    ``serving_payload()`` method -- a fitted
    :class:`~repro.approx.StreamingNystroemClassifier`, a
    :class:`~repro.core.QuantumKernelInferenceEngine`, a drift controller's
    shadow model, ...
    """
    if isinstance(model_or_payload, Mapping):
        return dict(model_or_payload)
    payload_method = getattr(model_or_payload, "serving_payload", None)
    if callable(payload_method):
        return payload_method()
    raise ServingError(
        "serve() needs a serving payload mapping or an object with a "
        f"serving_payload() method, got {type(model_or_payload).__name__}"
    )


class ServingHandle:
    """The one object a deployment holds onto after :func:`serve`.

    Wraps the replica fleet, its adaptive controller and (optionally) the
    telemetry endpoint behind a small stable surface; the underlying
    :attr:`router` / :attr:`controller` / :attr:`endpoint` stay reachable
    for anything the surface doesn't cover.  Usable as a context manager.
    """

    def __init__(
        self,
        router: ReplicaRouter,
        controller: AdaptiveController,
        config: ServingConfig,
        endpoint=None,
    ) -> None:
        self.router = router
        self.controller = controller
        self.config = config
        self.endpoint = endpoint
        self._closed = False

    # ------------------------------------------------------------------
    def __enter__(self) -> "ServingHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    def submit(self, row: np.ndarray) -> "Any":
        """Route one raw feature row; returns a future of the prediction."""
        return self.router.submit(row)

    def submit_many(
        self, rows: Sequence[np.ndarray] | np.ndarray
    ) -> List["Any"]:
        """Route many rows at once."""
        return self.router.submit_many(rows)

    def flush(self) -> None:
        """Force every pending request through and wait for the results."""
        self.router.flush()

    def predict(self, row: np.ndarray, timeout: float = 30.0) -> ServedPrediction:
        """Synchronous convenience: submit one row and wait for its answer."""
        return self.submit(row).result(timeout=timeout)

    # ------------------------------------------------------------------
    def swap(self, model_or_payload, version: int | None = None) -> int:
        """Atomically roll a new model out across the fleet.

        Accepts the same model-or-payload forms as :func:`serve`; returns
        the installed model version.
        """
        payload = resolve_serving_payload(model_or_payload)
        return self.router.swap_payload(payload, version=version)

    @property
    def model_version(self) -> int:
        """The fleet's current model version."""
        return self.router.model_version

    # ------------------------------------------------------------------
    def metrics(self) -> Dict:
        """The fleet dashboard plus a ``control`` section for the loop."""
        view = self.router.metrics_view()
        view["control"] = self.controller.summary()
        return view

    @property
    def url(self) -> Optional[str]:
        """Base URL of the telemetry endpoint (``None`` without telemetry)."""
        return self.endpoint.url if self.endpoint is not None else None

    # ------------------------------------------------------------------
    def close(self, snapshot: bool = False) -> None:
        """Stop the control loop, the endpoint and the fleet (idempotent).

        ``snapshot=True`` persists the fleet's caches to the durable tier
        before shutdown (requires a config with ``snapshot_root``).
        """
        if self._closed:
            return
        self._closed = True
        self.controller.stop()
        if self.endpoint is not None:
            self.endpoint.close()
        self.router.close(snapshot=snapshot)


def serve(
    model_or_payload,
    config: ServingConfig | None = None,
    *,
    telemetry: bool = False,
    **overrides,
) -> ServingHandle:
    """Stand up a traffic-ready serving fleet in one call.

    Parameters
    ----------
    model_or_payload:
        A serving payload mapping, or any object with ``serving_payload()``
        (a fitted streaming classifier, an inference engine, ...).
    config:
        Declarative :class:`~repro.config.ServingConfig`; defaults to one
        replica with default tuning and the ``"static"`` control policy
        (fixed knobs).
    telemetry:
        Start an HTTP endpoint (``/metrics``, ``/health``,
        ``/traces/recent``) bound to the fleet *and* the controller --
        knob gauges and adjustment counters appear next to the serving
        families.  Reachable via ``handle.endpoint`` / ``handle.url``.
    overrides:
        Keyword overrides forwarded to
        :meth:`~repro.serving.ReplicaRouter.from_config` (e.g. ``workers``).

    With ``config.control_interval_s > 0`` the controller steps itself from
    a background thread; otherwise drive it explicitly via
    ``handle.controller.step()`` (deterministic, as the test suites do).
    """
    if config is None:
        config = ServingConfig()
    payload = resolve_serving_payload(model_or_payload)
    router = ReplicaRouter.from_config(payload, config, **overrides)
    controller = AdaptiveController(
        router, policy=config.control_policy, tuning=config.tuning
    )
    endpoint = None
    if telemetry:
        from ..telemetry import attach_endpoint, bind_controller

        endpoint = attach_endpoint(router)
        bind_controller(endpoint.registry, controller)
    handle = ServingHandle(
        router=router, controller=controller, config=config, endpoint=endpoint
    )
    if config.control_interval_s > 0:
        controller.start(config.control_interval_s)
    # A full cyclic collection scans every long-lived object (modules, the
    # model, the fleet) and stalls the serving threads for tens of ms, so
    # freeze what is alive now.  Process-wide: no object alive now, the
    # caller's included, is scanned again unless gc.unfreeze() is called.
    gc.collect()
    gc.freeze()
    return handle
