"""Clients for the plan server: remote backend + network plan store.

Two registered components let any existing planning path offload to a
:class:`~repro.service.server.PlanServer` by switching one spec string:

* :class:`RemoteBackend` (kind ``backend``, spec ``remote:HOST:PORT``)
  — implements the ordinary backend contract by shipping its items
  (picklable :class:`~repro.core.pipeline.PlanRequest`\\ s and
  :class:`~repro.core.vectorize.VectorGroup`\\ s, exactly what sessions
  hand every backend) to the server's ``/plan_batch`` and returning the
  planned results in order.  ``PlannerSession(backend="remote:...")``,
  ``run_figure4(backend="remote:...")`` and ``repro figure4 --backend
  remote:...`` therefore offload whole sweeps with no other change.
* :class:`HTTPPlanCache` (kind ``cache``, spec ``http://HOST:PORT``) —
  a :class:`~repro.core.cache.PlanStore` whose entries live in the
  server's store, one ``/cache/get`` / ``/cache/put`` per lookup, so
  many client *processes* share one warm cache.  Compose it with
  :class:`~repro.core.cache.TieredPlanCache` for a local memory front
  (``cache="tiered:http://HOST:PORT"``): hot keys are answered from
  RAM, the shared tier fills and serves everything else.

Both ride :class:`ServiceClient`, a stdlib ``http.client`` client that
keeps its HTTP/1.1 connections alive in a per-process pool, with a
per-call timeout and bounded retry.  Two failure families retry, on
different clocks, and nothing else does:

* *transport* failures (connection refused, resets, timeouts) — the
  request may never have reached a healthy server, and planning is
  pure, so re-sending can change nothing but latency.  Linear backoff
  (``retry_wait * attempt``); exhausting the budget raises
  :class:`PlanServiceUnavailable`, the signal cluster coordinators
  reroute on.
* ``429 Too Many Requests`` — the server's admission gate refused the
  request *before* doing any work (see
  :class:`~repro.service.metrics.AdmissionGate`).  The client honours
  the server's ``Retry-After`` hint, capped by ``retry_after_cap`` so
  a hostile or confused header cannot stall a sweep, within the same
  bounded attempt budget.

Every other protocol-level error never retries: the server's 4xx/5xx
JSON error bodies and wire version mismatches surface as
:class:`PlanServiceError` / :class:`~repro.service.wire.WireError`
immediately, carrying the server's own message (and the HTTP status in
``PlanServiceError.code``).

Every envelope travels as binary-v2 (:mod:`repro.service.wire`), the
only format either end speaks, so a call needs no handshake first.
"""

from __future__ import annotations

import datetime
import email.utils
import http.client
import itertools
import json
import os
import threading
import time
import urllib.parse
from typing import Any, Callable, Hashable, Iterable, List, Optional, TypeVar

from repro.core.backends import Backend
from repro.core.cache import BasePlanStore, CacheStats
from repro.core.pipeline import PlanRequest, PlanResult, plan_request
from repro.core.vectorize import plan_work_item
from repro.obs import TRACE_HEADER, SpanRecorder, TraceContext, start_trace
from repro.registry import register
from repro.service import wire

T = TypeVar("T")
R = TypeVar("R")

#: transport errors worth retrying: the request may never have reached
#: a healthy server (refused/reset/timeout, or a connection that died
#: mid-response); planning is pure, so a duplicate delivery is harmless
_RETRYABLE = (OSError, http.client.HTTPException)


class PlanServiceError(RuntimeError):
    """Talking to the plan server failed (after any retries).

    When the failure is an HTTP-level refusal, :attr:`code` carries the
    status the server answered with (``None`` for transport failures),
    so callers can distinguish e.g. a 400 client mistake from a 503.
    """

    def __init__(self, message: str, *, code: int | None = None) -> None:
        super().__init__(message)
        self.code = code


class PlanServiceUnavailable(PlanServiceError):
    """The server could not be *reached* at all (transport exhausted).

    Distinct from :class:`PlanServiceError` answers: here no response
    arrived, so the server may be dead — the cluster coordinator treats
    exactly this as "worker down, reroute the batch", while an answered
    error (however unhappy) proves the worker is alive.
    """


def service_url(address: str) -> str:
    """Normalise an address/spec fragment into a base URL.

    Accepts ``HOST:PORT``, ``http://HOST:PORT``, and the ``//HOST:PORT``
    form a ``cache`` spec leaves after ``http:`` is split off.
    """
    address = address.strip().rstrip("/")
    if not address:
        raise ValueError("empty plan-server address")
    if address.startswith("//"):
        address = address[2:]
    if not address.startswith(("http://", "https://")):
        address = f"http://{address}"
    return address


class ServiceClient:
    """Thin HTTP client every service-side component shares.

    ``timeout`` bounds each attempt; ``retries`` extra attempts are made
    on transport errors, sleeping ``retry_wait * attempt`` between them
    (linear backoff keeps worst-case latency predictable), and on 429
    admission refusals, sleeping the server's ``Retry-After`` hint
    capped by ``retry_after_cap`` (the server knows its queue, so its
    clock beats the client's — but only up to the cap).

    ``wire_profile`` accepts only ``None`` or ``"binary-v2"`` (anything
    else is a ``ValueError``) and changes nothing: it and
    :meth:`wire_profile` survive only because ``perfbench/driver.py``
    still passes and calls them.  Drop both once perfbench stops.

    Tracing: every envelope call accepts ``trace=TraceContext`` to
    propagate (or force-sample) a distributed trace; ``trace_sample=N``
    makes the client originate a fresh sampled trace on every Nth call
    instead.  With a ``span_recorder``, the client records the root
    ``client <path>`` span — the client-observed latency all
    server-side spans nest inside.  Untraced calls carry no header and
    pay nothing.

    Connections: each call borrows an idle connection from a
    per-process pool or opens one.  It goes back only after a response
    read in full that did not ask to close; a transport failure closes
    every idle one.  :meth:`close` (or ``with``) releases the pool.
    ``http_proxy`` and friends are not consulted.
    """

    def __init__(
        self,
        address: str,
        *,
        timeout: float = 30.0,
        retries: int = 2,
        retry_wait: float = 0.2,
        retry_after_cap: float = 5.0,
        wire_profile: str | None = None,
        trace_sample: int | None = None,
        span_recorder: SpanRecorder | None = None,
    ) -> None:
        self.base_url = service_url(address)
        scheme, self._netloc = urllib.parse.urlsplit(self.base_url)[:2]
        self._connection_class = (
            http.client.HTTPSConnection if scheme == "https"
            else http.client.HTTPConnection
        )
        self._idle: List[http.client.HTTPConnection] = []
        self._pool_lock = threading.Lock()
        self._pool_pid = os.getpid()
        self.timeout = float(timeout)
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.retries = int(retries)
        self.retry_wait = float(retry_wait)
        if retry_after_cap <= 0:
            raise ValueError(
                f"retry_after_cap must be > 0, got {retry_after_cap}"
            )
        self.retry_after_cap = float(retry_after_cap)
        if wire_profile not in (None, wire.PROFILE_BINARY):
            raise ValueError(
                f"unknown wire profile {wire_profile!r}; the only one is "
                f"{wire.PROFILE_BINARY!r}"
            )
        # -- tracing: callers may pass an explicit TraceContext per call
        # ("always when the caller asks"); otherwise trace_sample=N
        # originates a sampled context on every Nth envelope call.  The
        # counter is a shared iterator: next() is atomic, so concurrent
        # callers never double-sample a slot.
        if trace_sample is not None and trace_sample < 1:
            raise ValueError(f"trace_sample must be >= 1, got {trace_sample}")
        self.trace_sample = trace_sample
        #: when set, the client records a root span around each traced
        #: call (the outermost timing every server-side span nests in)
        self.span_recorder = span_recorder
        self._op_counter = itertools.count()

    def wire_profile(self) -> str:
        """``"binary-v2"``, with no I/O (see the class docstring)."""
        return wire.PROFILE_BINARY

    # -- transport -------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        """An idle pooled connection, or a new one (it connects lazily)."""
        pid = os.getpid()
        if self._pool_pid != pid:
            # a forked child: the parent's sockets are not ours to
            # reuse, and the lock may have been held when it forked
            stale, self._idle = self._idle, []
            self._pool_lock, self._pool_pid = threading.Lock(), pid
            for conn in stale:
                conn.close()  # the child's copy of the fd only
        with self._pool_lock:
            if self._idle:
                return self._idle.pop()
        return self._connection_class(self._netloc, timeout=self.timeout)

    def close(self) -> None:
        """Close every idle pooled connection (idempotent).

        The client stays usable: a later call opens a new connection.
        """
        with self._pool_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _request(
        self,
        path: str,
        data: bytes | None,
        content_type: str | None,
        trace: Optional[TraceContext] = None,
    ) -> bytes:
        url = f"{self.base_url}{path}"
        headers: dict = {}
        if content_type:
            headers["Content-Type"] = content_type
        if trace is not None:
            headers[TRACE_HEADER] = trace.to_header()
        method = "GET" if data is None else "POST"
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            conn = self._connection()
            try:
                conn.request(method, path, data, headers)
                resp = conn.getresponse()
                body = resp.read()
            except _RETRYABLE as exc:
                conn.close()
                self.close()  # the rest of the pool is likely stale too
                last_error = exc
                if attempt < self.retries:
                    time.sleep(self.retry_wait * (attempt + 1))
                continue
            if resp.will_close:
                conn.close()
            else:
                with self._pool_lock:
                    self._idle.append(conn)
            if 200 <= resp.status < 300:
                return body
            # the server answered.  429 means "full, come back" — wait
            # the server's own hint (bounded) and retry within the same
            # attempt budget; every other status is a protocol error,
            # never retried
            if resp.status == 429 and attempt < self.retries:
                hint = resp.getheader("Retry-After")
                time.sleep(self._retry_after_delay(hint))
                continue
            raise PlanServiceError(
                f"{url} -> HTTP {resp.status}: "
                f"{_error_message(body, resp.reason)}",
                code=resp.status,
            )
        # only transport errors fall through: the final attempt's
        # answer (429 included) raises inline above
        raise PlanServiceUnavailable(
            f"cannot reach plan server at {self.base_url} "
            f"after {self.retries + 1} attempt(s): {last_error}"
        ) from None

    def _retry_after_delay(self, header: str | None) -> float:
        """The bounded wait a 429's ``Retry-After`` header asks for.

        RFC 7231 allows both forms — ``Retry-After: 2`` (delay
        seconds) and ``Retry-After: Fri, 08 Aug 2026 12:00:03 GMT``
        (an HTTP-date) — and both are honoured; a date in the past
        means "now".  Missing/garbage headers fall back to
        ``retry_wait``; anything is clamped into
        ``(0, retry_after_cap]`` so a server cannot make a client
        sleep forever (or not at all, which would spin).
        """
        delay = _parse_retry_after((header or "").strip())
        if delay is None:
            delay = self.retry_wait
        return min(max(delay, 0.01), self.retry_after_cap)

    def _trace_for(self, trace: Optional[TraceContext]) -> Optional[TraceContext]:
        """The context one envelope call travels with, if any.

        An explicit context wins (the caller is propagating or forced
        a sample); otherwise ``trace_sample=N`` originates a fresh
        sampled trace on every Nth call and leaves the rest untraced —
        no header at all, so the fast path stays byte-identical.
        """
        if trace is not None:
            return trace
        if self.trace_sample is None:
            return None
        if next(self._op_counter) % self.trace_sample != 0:
            return None
        return start_trace()

    def post(
        self, path: str, payload: Any, *, trace: Optional[TraceContext] = None
    ) -> Any:
        """POST an envelope, return the (maybe relayed) reply's payload.

        ``trace`` propagates an existing trace context; without one,
        ``trace_sample`` may originate a fresh sampled trace for this
        call.
        """
        body = self.post_raw(path, payload, trace=trace)
        return wire.unpack_v2(body, relayed=True)

    def post_raw(
        self, path: str, payload: Any, *, trace: Optional[TraceContext] = None
    ) -> bytes:
        """:meth:`post`, returning the response envelope undecoded."""
        ctx = self._trace_for(trace)
        data = wire.pack_v2(payload)
        if ctx is not None and ctx.sampled and self.span_recorder is not None:
            # the client-observed latency every server-side span must
            # nest inside: pack time is excluded (it happened above),
            # retries and backoff are included (the caller waits them)
            with self.span_recorder.span(
                ctx.trace_id,
                f"client {path}",
                span_id=ctx.span_id,
                parent_id=None,
                service="client",
                url=self.base_url,
            ):
                return self._request(path, data, wire.CONTENT_TYPE, trace=ctx)
        return self._request(path, data, wire.CONTENT_TYPE, trace=ctx)

    def get_json(self, path: str) -> dict:
        """GET a JSON control endpoint (``/healthz``, ``/cache/stats``)."""
        return json.loads(self._request(path, None, None).decode("utf-8"))

    # -- service calls ---------------------------------------------------

    def plan(
        self,
        request: PlanRequest,
        *,
        trace: Optional[TraceContext] = None,
    ) -> PlanResult:
        return self.post("/plan", request, trace=trace)

    def plan_items(
        self,
        items: List[Any],
        *,
        trace: Optional[TraceContext] = None,
    ) -> List[Any]:
        return self.post("/plan_batch", list(items), trace=trace)

    def cache_get(
        self, key: Hashable, *, trace: Optional[TraceContext] = None
    ) -> PlanResult | None:
        return self.post("/cache/get", key, trace=trace)

    def cache_put(self, key: Hashable, result: PlanResult) -> None:
        self._request(
            "/cache/put", wire.pack_v2((key, result)), wire.CONTENT_TYPE
        )

    def cache_clear(self) -> None:
        self._request("/cache/clear", b"", wire.CONTENT_TYPE)

    def cache_stats(self) -> dict:
        return self.get_json("/cache/stats")

    def healthz(self) -> dict:
        return self.get_json("/healthz")


def _parse_retry_after(header: str) -> float | None:
    """Seconds a ``Retry-After`` header asks for, or ``None`` on garbage.

    Accepts both RFC 7231 forms: a non-negative decimal delay and an
    HTTP-date (``email.utils`` parses all three date formats the RFC
    grandfathers in).  A date already in the past yields ``0.0`` —
    the server said "now", not "never".
    """
    if not header:
        return None
    try:
        return float(header)
    except ValueError:
        pass
    try:
        when = email.utils.parsedate_to_datetime(header)
    except (TypeError, ValueError):
        return None
    if when is None:
        return None
    if when.tzinfo is None:
        # RFC 5322 obsolete zone names parse as naive datetimes; the
        # RFC says to treat them as UTC
        when = when.replace(tzinfo=datetime.timezone.utc)
    now = datetime.datetime.now(datetime.timezone.utc)
    return max(0.0, (when - now).total_seconds())


def _error_message(body: bytes, reason: str) -> str:
    """The server's JSON ``error`` field, else the HTTP reason phrase."""
    text = body.decode("utf-8", errors="replace")
    try:
        return json.loads(text).get("error", text.strip())
    except (ValueError, AttributeError):
        return reason


#: the planners sessions route through backends; a remote backend ships
#: the *items* instead and lets the server apply the equivalent planner
_SHIPPABLE_PLANNERS: tuple[Callable[..., Any], ...] = (
    plan_request,
    plan_work_item,
)


@register(
    "backend",
    "remote",
    summary="Ship planning items to a repro plan server (remote:HOST:PORT)",
)
class RemoteBackend(Backend):
    """Dispatch planning work to a :class:`PlanServer` over HTTP.

    The backend contract is ``map(fn, items)``; a remote backend cannot
    ship arbitrary ``fn``, so it accepts exactly the planners sessions
    use (:func:`~repro.core.pipeline.plan_request` and the vectorised
    :func:`~repro.core.vectorize.plan_work_item`) and posts the *items*
    to ``/plan_batch`` — the server plans them through its own session,
    which is what makes its store a shared warm cache.  Any other ``fn``
    raises ``TypeError`` rather than silently planning the wrong thing.

    ``jobs`` is accepted for interface parity but concurrency lives
    server-side (the server's backend fans each batch out).
    """

    name = "remote"

    def __init__(
        self,
        address: str,
        jobs: int | None = None,
        *,
        timeout: float = 60.0,
        retries: int = 2,
        retry_wait: float = 0.2,
    ) -> None:
        super().__init__(jobs)
        self.client = ServiceClient(
            address, timeout=timeout, retries=retries, retry_wait=retry_wait
        )

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        items = list(items)
        if not items:
            return []
        if fn not in _SHIPPABLE_PLANNERS:
            raise TypeError(
                "RemoteBackend can only ship the session planners "
                "(plan_request / plan_work_item); got "
                f"{getattr(fn, '__name__', fn)!r}"
            )
        return self.client.plan_items(items)

    def shutdown(self) -> None:
        self.client.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<RemoteBackend {self.client.base_url}>"


@register(
    "cache",
    "http",
    summary="Client for a plan server's shared store (http://HOST:PORT)",
)
class HTTPPlanCache(BasePlanStore):
    """A :class:`~repro.core.cache.PlanStore` living on a plan server.

    ``get`` / ``put`` / ``clear`` are one HTTP call each against the
    server's store, so every client process pointing the same URL reads
    and warms one cache.  ``stats`` is the *server's* view — counters
    aggregate every client's traffic, which is the point of a shared
    tier (per-sweep hit deltas in one client are approximate whenever
    other clients are planning concurrently).

    A lookup round-trip costs an HTTP exchange; for hot working sets
    put a local LRU in front::

        PlannerSession(cache="tiered:http://HOST:PORT")
    """

    def __init__(
        self,
        url: str,
        *,
        timeout: float = 30.0,
        retries: int = 2,
        retry_wait: float = 0.2,
    ) -> None:
        self.client = ServiceClient(
            url, timeout=timeout, retries=retries, retry_wait=retry_wait
        )

    @property
    def url(self) -> str:
        return self.client.base_url

    def get(self, key: Hashable) -> PlanResult | None:
        return self.client.cache_get(key)

    def put(self, key: Hashable, result: PlanResult) -> None:
        self.client.cache_put(key, result)

    def clear(self) -> None:
        self.client.cache_clear()

    def close(self) -> None:
        self.client.close()

    def __len__(self) -> int:
        from repro.service.server import stats_from_payload

        stats = stats_from_payload(self.client.cache_stats())
        # a cacheless server has no entries to count; stats itself
        # raises instead, because reading counters there is a misuse
        return stats.entries if stats is not None else 0

    @property
    def stats(self) -> CacheStats:
        from repro.service.server import stats_from_payload

        stats = stats_from_payload(self.client.cache_stats())
        if stats is None:
            raise PlanServiceError(
                f"plan server at {self.url} runs without a cache"
            )
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<HTTPPlanCache {self.url}>"


@register(
    "cache",
    "https",
    summary="TLS variant of the http plan-store client (https://HOST:PORT)",
)
def https_plan_cache(url: str, **kwargs: Any) -> HTTPPlanCache:
    """Rebuild the scheme a ``https://...`` cache spec split off.

    ``cache_from_spec`` partitions a spec at its first colon, so the
    factory receives ``//HOST:PORT`` and must restore the right scheme
    itself (:class:`HTTPPlanCache` would default to plain http).
    """
    if url.startswith("//"):
        url = f"https:{url}"
    return HTTPPlanCache(url, **kwargs)
