"""HTTP export surface: ``/metrics`` and ``/health``.

:class:`TelemetryServer` wraps a stdlib :class:`http.server.
ThreadingHTTPServer` in a daemon thread -- no third-party dependency, no
event loop -- and serves two read-only endpoints:

* ``/metrics`` -- the bound registry in Prometheus text exposition
  (``text/plain; version=0.0.4``), collectors freshly run per scrape;
* ``/health`` -- a JSON liveness document with status ``ok`` / ``degraded``
  / ``down`` (HTTP 200 / 200 / 503), derived from a caller-supplied health
  callback -- :func:`attach_endpoint` wires the standard one for a serving
  queue (closed?).

Any other path is a 404 whose JSON body lists the two endpoints.

:func:`attach_endpoint` is the one-call entry point: give it a serving queue
and it binds the standard collectors (:mod:`repro.telemetry.instrument`),
builds the health callback, and starts the server on an ephemeral port.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional
from urllib.parse import urlsplit

from ..exceptions import TelemetryError
from .instrument import _Live, bind_classifier_coverage, bind_queue
from .prometheus import render_prometheus
from .registry import MetricsRegistry

__all__ = ["TelemetryServer", "attach_endpoint"]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _Handler(BaseHTTPRequestHandler):
    """Request handler reading registry/health off the server object."""

    server: "_Server"

    # Silence the default stderr access log; telemetry must not spam stdio.
    def log_message(self, format: str, *args) -> None:
        pass

    def _send(self, status: int, content_type: str, body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlsplit(self.path)
        try:
            if url.path == "/metrics":
                self._send(
                    200,
                    PROMETHEUS_CONTENT_TYPE,
                    render_prometheus(self.server.registry),
                )
            elif url.path == "/health":
                health = self.server.health()
                status = 503 if health.get("status") == "down" else 200
                self._send(
                    status, "application/json", json.dumps(health, indent=2)
                )
            else:
                self._send(
                    404,
                    "application/json",
                    json.dumps(
                        {
                            "error": f"unknown path {url.path!r}",
                            "endpoints": ["/metrics", "/health"],
                        }
                    ),
                )
        except Exception as exc:  # surface handler bugs as 500s, not hangs
            self._send(500, "application/json", json.dumps({"error": repr(exc)}))


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    registry: MetricsRegistry
    health: Callable[[], Dict]


def _default_health() -> Dict:
    return {"status": "ok"}


class TelemetryServer:
    """Background HTTP server exporting one registry.

    Binds ``host:port`` immediately (``port=0`` picks an ephemeral port --
    read it back from :attr:`port` / :attr:`url`) and serves from a daemon
    thread until :meth:`close`.  Usable as a context manager.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        health: Optional[Callable[[], Dict]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        try:
            self._httpd = _Server((host, port), _Handler)
        except OSError as exc:
            raise TelemetryError(
                f"cannot bind telemetry endpoint on {host}:{port}: {exc}"
            ) from exc
        self._httpd.registry = registry
        self._httpd.health = health if health is not None else _default_health
        self.registry = registry
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="telemetry-endpoint",
            daemon=True,
        )
        self._thread.start()
        self._closed = False

    @property
    def url(self) -> str:
        """Base URL of the running endpoint."""
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "TelemetryServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self._thread.join()
        self._httpd.server_close()


def _queue_health(queue) -> Callable[[], Dict]:
    def health() -> Dict:
        closed = bool(getattr(queue, "closed", False))
        return {
            "status": "down" if closed else "ok",
            "closed": closed,
            "pending": 0 if closed else int(queue.pending),
        }

    return health


def attach_endpoint(
    target,
    registry: Optional[MetricsRegistry] = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> TelemetryServer:
    """Start a telemetry endpoint for a serving queue.

    ``target`` is duck-typed: anything with ``submit`` + ``metrics`` (the
    :class:`~repro.serving.AsyncServingQueue` surface).  A fresh registry
    is created unless one is passed; the standard collectors
    (:mod:`repro.telemetry.instrument`) are bound either way, including the
    rolling conformal-coverage gauge when the target's classifier has
    conformal feedback attached.  Like the engine's series, the gauge reads
    the classifier that serves at each scrape, so after a swap it reads NaN
    until the new model has feedback.
    """
    if not (hasattr(target, "submit") and hasattr(target, "metrics")):
        raise TelemetryError(
            f"cannot attach a telemetry endpoint to {type(target).__name__}; "
            "expected a serving queue"
        )
    registry = registry if registry is not None else MetricsRegistry()
    bind_queue(registry, target)
    classifier = getattr(target, "classifier", None)
    if classifier is not None and getattr(classifier, "conformal", None) is not None:
        bind_classifier_coverage(registry, _Live(lambda: target.classifier))
    return TelemetryServer(registry, health=_queue_health(target), host=host, port=port)
