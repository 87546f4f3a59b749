"""Operability primitives for the service layer: metrics + admission.

Two small, stdlib-only building blocks both the single-server
:class:`~repro.service.server.PlanServer` and the cluster-mode
:class:`~repro.cluster.coordinator.ClusterCoordinator` share:

* :class:`ServerMetrics` — per-endpoint request counters and latency
  histograms behind one lock, served as plain JSON from ``/metrics``
  so ``curl``/dashboards need no client library.  Payloads carry the
  *raw* counters (count, errors, total time, bucket counts, exact max)
  plus derived convenience fields (mean/p50/p99); :func:`merge_metrics`
  re-derives the percentiles after summing raw counters, which is how
  a coordinator aggregates its workers' histograms losslessly.
* :class:`AdmissionGate` — a queue-depth limiter for graceful
  degradation under bursts: at most ``limit`` planning requests are in
  flight at once, the rest are refused so the server can answer ``429``
  with a ``Retry-After`` hint instead of queueing unboundedly and
  timing everyone out.  ``limit=None`` admits everything (the
  default), ``limit=0`` refuses everything (drain mode).
* :class:`AccessLog` — structured one-line-per-request access logging
  (``repro serve --log`` and the coordinator equivalent).  Both
  servers route every handled response through one
  ``observe_request`` hook that feeds :class:`ServerMetrics` *and*,
  when enabled, appends an access line — so the log and the
  histograms can never disagree about what was served.  Lines are
  logfmt-style ``key=value`` pairs (:func:`format_access_line`), and
  :func:`parse_access_line` is the inverse tools and tests use.

Latency buckets are fixed and log-spaced (sub-millisecond to tens of
seconds) so histograms from different processes are always mergeable
bucket-by-bucket; the exact maximum is tracked alongside so percentile
estimates clamp to a real observation rather than a bucket edge.
"""

from __future__ import annotations

import datetime
import sys
import threading
import time
from typing import Any, Dict, IO, Iterable, List, Mapping, Optional

#: histogram bucket upper bounds in seconds; one overflow bucket follows
LATENCY_BUCKETS_S: tuple = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class _EndpointCounters:
    """Raw counters for one endpoint (guarded by the owning metrics lock)."""

    __slots__ = ("count", "errors", "total_s", "max_s", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.errors = 0
        self.total_s = 0.0
        self.max_s = 0.0
        self.buckets = [0] * (len(LATENCY_BUCKETS_S) + 1)

    def observe(self, status: int, elapsed_s: float) -> None:
        self.count += 1
        if status >= 400:
            self.errors += 1
        self.total_s += elapsed_s
        if elapsed_s > self.max_s:
            self.max_s = elapsed_s
        for i, bound in enumerate(LATENCY_BUCKETS_S):
            if elapsed_s <= bound:
                self.buckets[i] += 1
                break
        else:
            self.buckets[-1] += 1


def _quantile_s(buckets: List[int], count: int, max_s: float, q: float) -> float:
    """Estimate the ``q`` quantile from bucket counts (upper-bound rule).

    Returns the upper bound of the first bucket whose cumulative count
    reaches ``q * count``; observations in the overflow bucket clamp to
    the tracked exact maximum, so the estimate is never an invented
    bound past anything actually seen.
    """
    if count <= 0:
        return 0.0
    target = q * count
    cumulative = 0
    for i, n in enumerate(buckets):
        cumulative += n
        if cumulative >= target:
            if i < len(LATENCY_BUCKETS_S):
                return min(LATENCY_BUCKETS_S[i], max_s)
            return max_s
    return max_s


def _derived(raw: Mapping[str, Any]) -> Dict[str, Any]:
    """One endpoint's JSON view: raw counters + derived latency fields."""
    count = int(raw["count"])
    total_s = float(raw["total_s"])
    max_s = float(raw["max_s"])
    buckets = [int(b) for b in raw["buckets"]]
    return {
        "count": count,
        "errors": int(raw["errors"]),
        "total_s": round(total_s, 6),
        "max_s": round(max_s, 6),
        "buckets": buckets,
        "mean_ms": round(1000.0 * total_s / count, 3) if count else 0.0,
        "p50_ms": round(1000.0 * _quantile_s(buckets, count, max_s, 0.50), 3),
        "p99_ms": round(1000.0 * _quantile_s(buckets, count, max_s, 0.99), 3),
    }


class ServerMetrics:
    """Thread-safe per-endpoint request counters and latency histograms.

    ``observe(endpoint, status, elapsed_s)`` is called once per handled
    request (every response path, including errors and 429 refusals);
    ``payload()`` renders the JSON the ``/metrics`` endpoint serves.
    Endpoint names should come from a fixed route table (the handlers
    normalise unknown paths to ``"other"``) so cardinality stays
    bounded whatever clients probe.  ``connection_opened`` /
    ``connection_closed`` count client connections, so the payload's
    ``connections`` field shows how well clients reuse them.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._endpoints: Dict[str, _EndpointCounters] = {}
        self._connections = {"accepted": 0, "open": 0}
        # monotonic, not wall-clock: an NTP step must never make
        # uptime_s jump or go negative (it feeds `repro cluster
        # status` and the loadtest cross-checks)
        self._started = time.monotonic()

    def observe(self, endpoint: str, status: int, elapsed_s: float) -> None:
        with self._lock:
            counters = self._endpoints.get(endpoint)
            if counters is None:
                counters = self._endpoints[endpoint] = _EndpointCounters()
            counters.observe(int(status), float(elapsed_s))

    def connection_opened(self) -> None:
        with self._lock:
            self._connections["accepted"] += 1
            self._connections["open"] += 1

    def connection_closed(self) -> None:
        with self._lock:
            self._connections["open"] -= 1

    def payload(self) -> Dict[str, Any]:
        """The ``/metrics`` JSON: per-endpoint raw + derived counters."""
        with self._lock:
            endpoints = {
                name: _derived(
                    {
                        "count": c.count,
                        "errors": c.errors,
                        "total_s": c.total_s,
                        "max_s": c.max_s,
                        "buckets": c.buckets,
                    }
                )
                for name, c in sorted(self._endpoints.items())
            }
            connections = dict(self._connections)
            started = self._started
        return {
            "uptime_s": round(time.monotonic() - started, 3),
            "latency_buckets_s": list(LATENCY_BUCKETS_S),
            "endpoints": endpoints,
            "connections": connections,
        }


def merge_metrics(payloads: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Sum several ``/metrics`` payloads into one aggregate view.

    Counters, histogram buckets and connection counts add; the exact
    max is the max of maxima; mean/p50/p99 are re-derived from the
    merged raw counters — so a coordinator's cluster-wide histogram is
    exactly what one server observing all the traffic would have
    reported (percentile resolution bounded by the shared bucket grid).
    Payloads from servers with different bucket grids are rejected
    loudly rather than summed wrongly.
    """
    merged: Dict[str, Dict[str, Any]] = {}
    connections = {"accepted": 0, "open": 0}
    uptime = 0.0
    for payload in payloads:
        grid = list(payload.get("latency_buckets_s", LATENCY_BUCKETS_S))
        if grid != list(LATENCY_BUCKETS_S):
            raise ValueError(
                "cannot merge /metrics payloads with a different "
                f"latency bucket grid: {grid!r}"
            )
        uptime = max(uptime, float(payload.get("uptime_s", 0.0)))
        reported = payload.get("connections", {})
        for field in connections:
            connections[field] += int(reported.get(field, 0))
        for name, ep in payload.get("endpoints", {}).items():
            agg = merged.get(name)
            if agg is None:
                merged[name] = {
                    "count": int(ep["count"]),
                    "errors": int(ep["errors"]),
                    "total_s": float(ep["total_s"]),
                    "max_s": float(ep["max_s"]),
                    "buckets": [int(b) for b in ep["buckets"]],
                }
            else:
                agg["count"] += int(ep["count"])
                agg["errors"] += int(ep["errors"])
                agg["total_s"] += float(ep["total_s"])
                agg["max_s"] = max(agg["max_s"], float(ep["max_s"]))
                agg["buckets"] = [
                    a + int(b) for a, b in zip(agg["buckets"], ep["buckets"])
                ]
    return {
        "uptime_s": round(uptime, 3),
        "latency_buckets_s": list(LATENCY_BUCKETS_S),
        "endpoints": {
            name: _derived(raw) for name, raw in sorted(merged.items())
        },
        "connections": connections,
    }


def prometheus_exposition(payload: Mapping[str, Any]) -> str:
    """Render a ``/metrics`` JSON payload as Prometheus text format.

    Served from ``/metrics?format=prometheus`` on both servers so any
    standard scraper works without a client library.  The JSON payload
    stays the source of truth (and the loadtest cross-check's input);
    this is a pure rendering of the same counters:

    * ``repro_requests_total`` / ``repro_request_errors_total`` —
      per-endpoint counters;
    * ``repro_request_duration_seconds`` — a conventional histogram:
      per-bucket counts become *cumulative* ``le``-labelled series
      (our buckets are disjoint internally; Prometheus buckets are
      "everything ≤ bound"), the overflow bucket becomes ``le="+Inf"``,
      plus ``_sum`` and ``_count``;
    * ``repro_uptime_seconds`` — a gauge;
    * ``repro_connections_accepted_total`` / ``repro_connections_open``
      — client connections accepted (a counter) and open now (a gauge).

    Works on any payload shaped like :meth:`ServerMetrics.payload`,
    including :func:`merge_metrics` output — the coordinator exposes
    its cluster-wide aggregate this way.
    """
    bounds = [float(b) for b in payload.get(
        "latency_buckets_s", LATENCY_BUCKETS_S
    )]
    connections = payload.get("connections", {})
    lines = [
        "# HELP repro_uptime_seconds Seconds since the server started.",
        "# TYPE repro_uptime_seconds gauge",
        f"repro_uptime_seconds {float(payload.get('uptime_s', 0.0))}",
        "# HELP repro_connections_accepted_total Connections accepted.",
        "# TYPE repro_connections_accepted_total counter",
        f"repro_connections_accepted_total {connections.get('accepted', 0)}",
        "# HELP repro_connections_open Connections open now.",
        "# TYPE repro_connections_open gauge",
        f"repro_connections_open {connections.get('open', 0)}",
        "# HELP repro_requests_total Requests handled, by endpoint.",
        "# TYPE repro_requests_total counter",
    ]
    endpoints = payload.get("endpoints", {})
    for name in sorted(endpoints):
        lines.append(
            f'repro_requests_total{{endpoint="{name}"}} '
            f"{int(endpoints[name]['count'])}"
        )
    lines += [
        "# HELP repro_request_errors_total Responses with status >= 400.",
        "# TYPE repro_request_errors_total counter",
    ]
    for name in sorted(endpoints):
        lines.append(
            f'repro_request_errors_total{{endpoint="{name}"}} '
            f"{int(endpoints[name]['errors'])}"
        )
    lines += [
        "# HELP repro_request_duration_seconds Request latency histogram.",
        "# TYPE repro_request_duration_seconds histogram",
    ]
    for name in sorted(endpoints):
        ep = endpoints[name]
        cumulative = 0
        for bound, n in zip(bounds, ep["buckets"]):
            cumulative += int(n)
            lines.append(
                f"repro_request_duration_seconds_bucket"
                f'{{endpoint="{name}",le="{bound}"}} {cumulative}'
            )
        cumulative += int(ep["buckets"][len(bounds)])
        lines.append(
            f"repro_request_duration_seconds_bucket"
            f'{{endpoint="{name}",le="+Inf"}} {cumulative}'
        )
        lines.append(
            f'repro_request_duration_seconds_sum{{endpoint="{name}"}} '
            f"{float(ep['total_s'])}"
        )
        lines.append(
            f'repro_request_duration_seconds_count{{endpoint="{name}"}} '
            f"{int(ep['count'])}"
        )
    return "\n".join(lines) + "\n"


#: field order of an access-log line; parse_access_line requires them all
ACCESS_LOG_FIELDS = ("ts", "endpoint", "status", "elapsed_ms", "bytes", "trace")


def format_access_line(
    endpoint: str,
    status: int,
    elapsed_s: float,
    *,
    nbytes: int = 0,
    trace: str = "-",
    ts: Optional[str] = None,
) -> str:
    """One structured access-log line (logfmt-style ``key=value``).

    ``ts`` is an ISO-8601 UTC wall-clock stamp — logs are for humans
    correlating with the outside world, unlike the monotonic uptime
    the metrics use.  ``trace`` is the request's trace id when it
    carried a sampled ``X-Repro-Trace`` context (``-`` otherwise), so
    log lines join against ``--trace`` span files by id.  None of the
    built-in field values can contain a space, so the line splits back
    losslessly.
    """
    if ts is None:
        ts = datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="milliseconds"
        )
    return (
        f"ts={ts} endpoint={endpoint} status={int(status)} "
        f"elapsed_ms={1000.0 * elapsed_s:.3f} bytes={int(nbytes)} "
        f"trace={trace or '-'}"
    )


def parse_access_line(line: str) -> Dict[str, Any]:
    """Parse one :func:`format_access_line` line back into a dict.

    Raises ``ValueError`` on anything that is not a complete access
    line, so log-processing tools (and the CI smoke) fail loudly on
    interleaved or truncated output instead of mis-counting.  Other
    ``key=value`` tokens are ignored, so lines written by older servers
    (which carried a ``wire=`` column) still parse.
    """
    fields: Dict[str, str] = {}
    for token in line.split():
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"not an access-log token {token!r} in {line!r}")
        fields[key] = value
    missing = [name for name in ACCESS_LOG_FIELDS if name not in fields]
    if missing:
        raise ValueError(
            f"access-log line missing field(s) {missing}: {line!r}"
        )
    return {
        "ts": fields["ts"],
        "endpoint": fields["endpoint"],
        "status": int(fields["status"]),
        "elapsed_ms": float(fields["elapsed_ms"]),
        "bytes": int(fields["bytes"]),
        "trace": fields["trace"],
    }


class AccessLog:
    """Append structured access lines to a stream or file, thread-safely.

    ``AccessLog()`` writes to stderr (the ``--log`` default — it
    composes with shell redirection); ``AccessLog.open(path)`` appends
    to a file it owns (and :meth:`close` closes).  ``record`` is wired
    into both servers' ``observe_request`` hook, one call per handled
    response, errors and 429 refusals included.  Lines are flushed per
    record so a tailing operator (or the loadtest smoke) never waits
    on a buffer.
    """

    def __init__(
        self, stream: Optional[IO[str]] = None, *, _owns_stream: bool = False
    ) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._owns_stream = _owns_stream
        self._lock = threading.Lock()
        #: lines ever written (handy for tests and status displays)
        self.lines_written = 0

    @classmethod
    def open(cls, path: str) -> "AccessLog":
        """An access log appending to ``path`` (created if missing)."""
        return cls(open(path, "a", encoding="utf-8"), _owns_stream=True)

    def record(
        self,
        endpoint: str,
        status: int,
        elapsed_s: float,
        *,
        nbytes: int = 0,
        trace: str = "-",
    ) -> None:
        line = format_access_line(
            endpoint, status, elapsed_s, nbytes=nbytes, trace=trace
        )
        with self._lock:
            try:
                self._stream.write(line + "\n")
                self._stream.flush()
            except ValueError:
                # the stream was closed under us (shutdown race): a
                # lost log line must never fail the request it logs
                pass
            else:
                self.lines_written += 1

    def close(self) -> None:
        """Close an owned file stream (stderr is never closed)."""
        if self._owns_stream:
            with self._lock:
                self._stream.close()


class AdmissionGate:
    """Bounded in-flight admission: try_acquire / release around work.

    The planning endpoints wrap their handling in::

        if not gate.try_acquire():
            reply 429, Retry-After: gate.RETRY_AFTER_S
        try: ... finally: gate.release()

    so at most ``limit`` requests plan concurrently and the excess is
    refused *immediately* — the client-visible contract bursts degrade
    to (the :class:`~repro.service.client.ServiceClient` retry path
    honours the hint).  ``limit=None`` admits everything.
    """

    #: seconds a refused client is told to wait (``Retry-After``)
    RETRY_AFTER_S = 0.5

    def __init__(self, limit: int | None) -> None:
        if limit is not None and limit < 0:
            raise ValueError(f"max_inflight must be >= 0, got {limit}")
        self.limit = limit
        self._lock = threading.Lock()
        self._inflight = 0

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def try_acquire(self) -> bool:
        """Admit one request, or refuse when the queue depth is reached."""
        with self._lock:
            if self.limit is not None and self._inflight >= self.limit:
                return False
            self._inflight += 1
            return True

    def release(self) -> None:
        with self._lock:
            if self._inflight > 0:
                self._inflight -= 1
