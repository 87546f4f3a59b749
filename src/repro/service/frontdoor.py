"""The one HTTP front door under every plan service.

:class:`~repro.service.server.PlanServer` and
:class:`~repro.cluster.coordinator.ClusterCoordinator` speak the same
protocol, so the protocol lives here once: :class:`FrontDoor` holds the
server state around the handler (metrics, access log, admission gate,
span recorder, accepted wire profiles, socket lifecycle) and
:class:`FrontDoorHandler` is the only request handler.  A concrete
server supplies three things:

* a route table (:meth:`FrontDoor.route_table`, built once per server):
  path → :class:`Route`.  Its keys are also the endpoint names
  ``/metrics`` reports; any other path counts as ``other``, so probing
  clients cannot grow the metric cardinality;
* the operations those routes call: ``plan``, ``plan_items``,
  ``cache_get`` / ``cache_put`` / ``cache_clear`` / ``cache_stats``,
  ``health_payload`` and :meth:`FrontDoor.metrics_payload`;
* optionally, extra error mappings (:meth:`FrontDoor.error_reply`).

What the handler guarantees for every route:

* **observe before write** — each response reports through
  :meth:`FrontDoor.observe_request` (histograms + access log, one call
  site) before its first byte hits the wire, so a client holding its
  answer can already see the request in ``/metrics``; the loadtest
  cross-check reconciles client and server counts on that;
* **wire negotiation** — wire-speaking POSTs name their profile in the
  :data:`~repro.service.wire.PROFILE_HEADER` header (else the body's
  magic line decides) and are answered in kind; a refused profile
  (``--wire safe`` vs pickle) is a 400 before any byte is decoded;
* **tracing** — a sampled ``X-Repro-Trace`` context opens a
  ``"{role} {endpoint}"`` root span around the route, with
  ``wire_decode`` / ``wire_encode`` spans at the envelope seams;
* **admission** — gated (planning) routes answer 429 + ``Retry-After``
  when the gate is full, before any decoding or planning;
* **errors** — client mistakes (bad envelope, unknown component, cache
  off) are 400, the server's own mappings come next, and anything else
  is a 500 relaying the exception message.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, NamedTuple, Tuple

from repro import obs
from repro.core.pipeline import PlanRequest
from repro.core.vectorize import VectorGroup
from repro.registry import RegistryError
from repro.service import wire
from repro.service.metrics import (
    AccessLog,
    AdmissionGate,
    ServerMetrics,
    prometheus_exposition,
)

#: an :meth:`FrontDoor.error_reply` answer: status, JSON body, headers
ErrorReply = Tuple[int, dict, Dict[str, str]]


class Route(NamedTuple):
    """One endpoint: what its operation takes and how it is answered.

    ``takes`` is what ``op`` receives: nothing (``""``), the decoded
    request envelope (``"envelope"``) or the parsed JSON object body
    (``"json"``).  ``reply`` is how its return value goes back: as JSON,
    as an envelope in the request's profile, or as the ``/metrics``
    payload (JSON or Prometheus, by ``?format=``).  ``gated`` routes
    pass the admission gate first.  A POST route with ``wire`` set
    negotiates a profile and runs under the root span; control-plane
    routes clear it and need neither.
    """

    verb: str
    op: Callable[..., Any]
    takes: str = ""
    reply: str = "json"
    gated: bool = False
    wire: bool = True


class FrontDoorHandler(BaseHTTPRequestHandler):
    """Routes one connection's requests onto the owning :class:`FrontDoor`."""

    protocol_version = "HTTP/1.1"

    @property
    def door(self) -> "FrontDoor":
        return self.server.door  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        # access logging goes through observe_request (--log), never
        # stderr spam from http.server
        pass

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._handle("POST")

    # -- dispatch --------------------------------------------------------

    def _handle(self, verb: str) -> None:
        self._started = time.perf_counter()
        # split any query string off before route matching, so
        # /metrics?format=prometheus is still the /metrics endpoint
        path, _, query = self.path.partition("?")
        self._query = urllib.parse.parse_qs(query)
        route = self.door.routes.get(path)
        self._endpoint = path if route is not None else "other"
        if route is not None and route.verb != verb:
            route = None
        # the access log's wire column; wire-speaking POSTs overwrite it
        self._profile = "-"
        # only sampled contexts surface in the access log and record spans
        self._trace = obs.parse_trace_header(
            self.headers.get(obs.TRACE_HEADER)
        )
        try:
            if verb == "GET":
                self._call(route, b"")
                return
            body = self._body()
            if route is not None and not route.wire:
                self._call(route, body)
                return
            self._profile = self._request_profile(body)
            with obs.serving(
                self.door.span_recorder,
                self._trace,
                f"{self.door.role} {self._endpoint}",
            ):
                self._call(route, body)
        except (wire.WireError, RegistryError, TypeError, ValueError) as exc:
            # client mistakes: bad envelope, unknown strategy, cache off
            self._reply_json(400, {"error": str(exc)})
        except Exception as exc:
            mapped = self.door.error_reply(exc)
            if mapped is not None:
                self._reply_json(*mapped)
            else:
                # a genuine crash; relay the message truthfully
                self._reply_json(
                    500, {"error": f"{type(exc).__name__}: {exc}"}
                )

    def _call(self, route: Route | None, body: bytes) -> None:
        if route is None:
            self._reply_json(404, {"error": f"no such endpoint {self.path}"})
            return
        if not route.gated:
            self._run(route, body)
            return
        gate = self.door.admission
        if not gate.try_acquire():
            self._reply_json(
                429,
                {
                    "error": (
                        f"{self.door.role} over capacity ({gate.limit} "
                        f"planning request(s) in flight); retry after "
                        f"{gate.retry_after}s"
                    ),
                    "retry_after": gate.retry_after,
                },
                {"Retry-After": f"{gate.retry_after:g}"},
            )
            return
        try:
            self._run(route, body)
        finally:
            gate.release()

    def _run(self, route: Route, body: bytes) -> None:
        if route.takes == "envelope":
            with obs.span(
                "wire_decode", profile=self._profile, nbytes=len(body)
            ):
                args: tuple = (
                    wire.unpack_any(body, allowed=(self._profile,)),
                )
        elif route.takes == "json":
            args = (self._json_body(body),)
        else:
            args = ()
        result = route.op(*args)
        if route.reply == "envelope":
            with obs.span("wire_encode", profile=self._profile):
                data = wire.pack_as(result, self._profile)
            self._reply(200, data, wire.CONTENT_TYPE)
        elif route.reply == "metrics":
            self._reply_metrics(result)
        else:
            self._reply_json(200, result)

    # -- request plumbing --------------------------------------------------

    def _body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        return self.rfile.read(length) if length else b""

    def _json_body(self, body: bytes) -> dict:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"expected a JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise ValueError(
                f"expected a JSON object, got {type(payload).__name__}"
            )
        return payload

    def _request_profile(self, body: bytes) -> str:
        """The wire profile this request speaks (header, else magic).

        Requests with an empty body (``/cache/clear``) carry no magic
        line, so the :data:`~repro.service.wire.PROFILE_HEADER` the
        clients send decides; bodies decide for headerless v1 clients.
        A profile the server refuses (``--wire safe`` vs pickle) fails
        here with a clear, actionable message — before any unpickling.
        """
        allowed = self.door.wire_profiles
        role = self.door.role
        header = (self.headers.get(wire.PROFILE_HEADER) or "").strip()
        if header:
            profile = header
            if profile not in wire.PROFILES:
                raise wire.WireError(
                    f"unknown wire profile {profile!r}; this {role} "
                    f"speaks {', '.join(allowed)}"
                )
        elif body:
            profile = wire.detect_profile(body)
        else:
            profile = wire.PROFILE_PICKLE
        if profile not in allowed:
            raise wire.WireError(
                f"wire profile {profile!r} refused: this {role} runs "
                f"--wire safe and only accepts {', '.join(allowed)} — "
                "upgrade the client (it negotiates binary-v2 via "
                f"/healthz) or restart the {role} with --wire auto"
            )
        return profile

    # -- replies -----------------------------------------------------------

    def _reply(
        self,
        code: int,
        body: bytes,
        content_type: str,
        extra_headers: Dict[str, str] | None = None,
    ) -> None:
        # observe BEFORE any response byte hits the wire: once a client
        # holds its answer the request must already be visible in
        # /metrics — the loadtest cross-check relies on that
        # happens-before to reconcile client and server counts exactly
        trace = self._trace
        self.door.observe_request(
            self._endpoint,
            code,
            time.perf_counter() - self._started,
            profile=self._profile,
            nbytes=len(body),
            trace=(
                trace.trace_id
                if trace is not None and trace.sampled
                else "-"
            ),
        )
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header(wire.VERSION_HEADER, str(wire.WIRE_VERSION))
        self.send_header(
            wire.PROFILE_HEADER, ",".join(self.door.wire_profiles)
        )
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _reply_json(
        self,
        code: int,
        payload: dict,
        extra_headers: Dict[str, str] | None = None,
    ) -> None:
        self._reply(
            code,
            json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n",
            "application/json",
            extra_headers,
        )

    def _reply_metrics(self, payload: dict) -> None:
        """Serve ``/metrics`` as JSON, or Prometheus text on request."""
        fmt = (self._query.get("format") or ["json"])[0]
        if fmt == "prometheus":
            text = prometheus_exposition(self.door.prometheus_view(payload))
            self._reply(
                200,
                text.encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        elif fmt == "json":
            self._reply_json(200, payload)
        else:
            self._reply_json(
                400,
                {"error": f"unknown metrics format {fmt!r}; "
                          "pick 'json' or 'prometheus'"},
            )


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    #: set by FrontDoor right after binding
    door: "FrontDoor"


class FrontDoor:
    """Server state and lifecycle shared by every plan service.

    Subclasses set up their own state, call ``super().__init__`` and
    finish with :meth:`_listen` (which builds the route table and binds
    the socket, so a failing constructor never leaks a listener).
    ``wire_mode="safe"`` drops pickle-v1 so nothing on this port ever
    unpickles; ``max_inflight`` / ``retry_after`` configure the
    admission gate on the gated routes; ``access_log`` and
    ``span_recorder`` receive every response and every sampled span.

    Use as a context manager or call :meth:`close`; :meth:`start` runs
    the accept loop on a daemon thread (tests, embedding),
    :meth:`serve_forever` runs it in the calling thread (the CLI).
    """

    #: names the root spans (``"server /plan"``) and the error messages
    role = "server"

    def __init__(
        self,
        *,
        wire_mode: str,
        max_inflight: int | None,
        retry_after: float,
        access_log: AccessLog | None,
        span_recorder: obs.SpanRecorder | None,
    ) -> None:
        if wire_mode not in ("auto", "safe"):
            raise ValueError(
                f"wire_mode must be 'auto' or 'safe', got {wire_mode!r}"
            )
        self.wire_mode = wire_mode
        #: profiles this server accepts and advertises, preference first
        self.wire_profiles: tuple = (
            (wire.PROFILE_BINARY,) if wire_mode == "safe" else wire.PROFILES
        )
        self.metrics = ServerMetrics()
        #: when set, every handled response also appends one access line
        self.access_log = access_log
        #: when set, sampled traced requests record spans here; None
        #: means tracing is off and a request pays one attribute read
        self.span_recorder = span_recorder
        #: queue-depth limit on the gated routes (None = unbounded)
        self.admission = AdmissionGate(max_inflight, retry_after)

    def _listen(self, host: str, port: int) -> None:
        self.routes: Dict[str, Route] = self.route_table()
        self._http = _HTTPServer((host, port), FrontDoorHandler)
        self._http.door = self
        self.host, self.port = self._http.server_address[:2]
        self._thread: threading.Thread | None = None
        self._closed = False

    # -- what a server supplies -------------------------------------------

    def route_table(self) -> Dict[str, Route]:
        """The endpoints every plan service serves (extend in subclasses)."""
        return {
            "/healthz": Route("GET", self.health_payload),
            "/metrics": Route("GET", self.metrics_payload, reply="metrics"),
            "/cache/stats": Route("GET", self.cache_stats),
            "/plan": Route(
                "POST", self._plan_route, "envelope", "envelope", gated=True
            ),
            "/plan_batch": Route(
                "POST", self._plan_batch_route, "envelope", "envelope",
                gated=True,
            ),
            "/cache/get": Route(
                "POST", self.cache_get, "envelope", "envelope"
            ),
            "/cache/put": Route("POST", self._cache_put_route, "envelope"),
            "/cache/clear": Route("POST", self.cache_clear),
        }

    def metrics_payload(self) -> dict:
        """The ``/metrics`` JSON: this server's own counters."""
        return self.metrics.payload()

    def prometheus_view(self, payload: dict) -> dict:
        """The counters ``/metrics?format=prometheus`` renders."""
        return payload

    def error_reply(self, exc: Exception) -> ErrorReply | None:
        """Map a server-specific exception to a reply (None: it's a 500)."""
        return None

    # -- shared route adapters ---------------------------------------------

    def _plan_route(self, request: Any) -> Any:
        if not isinstance(request, PlanRequest):
            raise wire.WireError(
                f"/plan expects a PlanRequest, got {type(request).__name__}"
            )
        return self.plan(request)

    def _plan_batch_route(self, items: Any) -> Any:
        if not isinstance(items, (list, tuple)):
            raise wire.WireError(
                f"/plan_batch expects a list of items, got {type(items).__name__}"
            )
        for item in items:
            if not isinstance(item, (PlanRequest, VectorGroup)):
                raise wire.WireError(
                    "plan_batch items must be PlanRequest or VectorGroup, "
                    f"got {type(item).__name__}"
                )
        return self.plan_items(items)

    def _cache_put_route(self, entry: Any) -> dict:
        key, result = entry
        self.cache_put(key, result)
        return {"stored": True}

    def _health(self, **fields: Any) -> dict:
        """The ``/healthz`` fields every server reports, plus ``fields``."""
        from repro import __version__

        return {
            "status": "ok",
            "service": wire.WIRE_FORMAT,
            "wire_version": wire.WIRE_VERSION,
            "wire_profiles": list(self.wire_profiles),
            "wire_mode": self.wire_mode,
            "version": __version__,
            "max_inflight": self.admission.limit,
            **fields,
        }

    # -- handler-facing API ------------------------------------------------

    def observe_request(
        self,
        endpoint: str,
        status: int,
        elapsed_s: float,
        *,
        profile: str = "-",
        nbytes: int = 0,
        trace: str = "-",
    ) -> None:
        """The single exit point every handled response reports through.

        Feeds the latency histograms and, when ``--log`` enabled one,
        the access log — from one call site, so the two can never
        disagree about what was served.  ``trace`` is the sampled
        trace id the request carried (``-`` otherwise), letting log
        lines join trace files by id.
        """
        self.metrics.observe(endpoint, status, elapsed_s)
        if self.access_log is not None:
            self.access_log.record(
                endpoint, status, elapsed_s,
                wire=profile, nbytes=nbytes, trace=trace,
            )

    # -- lifecycle ---------------------------------------------------------

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _on_start(self) -> None:
        """Start what the server runs besides the accept loop."""

    def _on_close(self) -> None:
        """Release what the server holds once the socket is closed."""

    def start(self) -> "FrontDoor":
        """Serve on a daemon thread and return immediately."""
        if self._thread is None:
            self._on_start()
            self._thread = threading.Thread(
                target=self._http.serve_forever,
                name=f"repro-{self.role}",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve in the calling thread until :meth:`close` / interrupt."""
        self._on_start()
        self._http.serve_forever()

    def close(self) -> None:
        """Stop accepting, release the socket and the server (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._http.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self._http.server_close()
        self._on_close()
        if self.access_log is not None:
            self.access_log.close()
        if self.span_recorder is not None:
            self.span_recorder.close()

    def __enter__(self) -> "FrontDoor":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
