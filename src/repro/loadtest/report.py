"""Load-test results: client-side stats, server cross-check, verdict.

The driver hands this module two things per run: the merged
*client-side* metrics (each worker thread records latencies into its
own :class:`~repro.service.metrics.ServerMetrics` — the same fixed
log-spaced histograms the servers use — merged losslessly by
:func:`~repro.service.metrics.merge_metrics`), and the target's own
``/metrics`` payloads snapshotted before and after the run.  From
those it derives:

* achieved RPS and client-observed p50/p99 per endpoint and overall;
* the error budget verdict — answered non-429 errors and transport
  failures count against ``error_budget``; 429 refusals are reported
  separately (backpressure is the admission gate *working*, not an
  error, but you still want to see it);
* the **server cross-check**: for each planning endpoint, the delta of
  the server's own front-door request counter across the run must
  equal the client's count of requests that reached the server
  (attempted minus transport failures).  A mismatch means dropped or
  double-counted requests — exactly the instrumentation rot this
  harness exists to catch — and fails the verdict.

Works identically against a single :class:`~repro.service.server.
PlanServer` and a :class:`~repro.cluster.coordinator.
ClusterCoordinator`: a coordinator's ``/metrics`` nests its front-door
counters under ``"coordinator"`` (and carries the cluster-wide worker
merge under ``"cluster"``), a server's payload *is* its counters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.obs import Span, quantile
from repro.service.metrics import (
    LATENCY_BUCKETS_S,
    _quantile_s,
    merge_metrics,
)

#: endpoints the cross-check reconciles (the ones the stream drives)
CHECKED_ENDPOINTS = ("/plan", "/plan_batch", "/cache/get")


def frontdoor_metrics(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """The request-counting section of any server's ``/metrics``.

    A coordinator's payload nests its own counters under
    ``"coordinator"``; a plain server's payload is already the
    counters.  Both come back normalised through
    :func:`merge_metrics` so downstream code sees one shape.
    """
    if payload.get("role") == "coordinator":
        payload = payload["coordinator"]
    return merge_metrics([payload])


def overall_latency_ms(payload: Mapping[str, Any], q: float) -> float:
    """One quantile over *all* endpoints of a metrics payload merged."""
    buckets = [0] * (len(LATENCY_BUCKETS_S) + 1)
    count = 0
    max_s = 0.0
    for endpoint in payload.get("endpoints", {}).values():
        count += int(endpoint["count"])
        max_s = max(max_s, float(endpoint["max_s"]))
        for i, n in enumerate(endpoint["buckets"]):
            buckets[i] += int(n)
    return round(1000.0 * _quantile_s(buckets, count, max_s, q), 3)


@dataclass
class EndpointCheck:
    """One endpoint's client-vs-server request-count reconciliation."""

    endpoint: str
    #: requests the client attempted (each is exactly one HTTP request)
    attempted: int
    #: attempts that died in transport — the server never saw them
    unreachable: int
    #: the server's own counter delta across the run
    server_count: int

    @property
    def expected(self) -> int:
        return self.attempted - self.unreachable

    @property
    def matched(self) -> bool:
        return self.server_count == self.expected

    def as_dict(self) -> Dict[str, Any]:
        return {
            "endpoint": self.endpoint,
            "attempted": self.attempted,
            "unreachable": self.unreachable,
            "expected": self.expected,
            "server_count": self.server_count,
            "matched": self.matched,
        }


def cross_check(
    before: Mapping[str, Any],
    after: Mapping[str, Any],
    attempted: Mapping[str, int],
    unreachable: Mapping[str, int],
) -> List[EndpointCheck]:
    """Reconcile client-side counts against the server's own counters."""
    counts_before = frontdoor_metrics(before)["endpoints"]
    counts_after = frontdoor_metrics(after)["endpoints"]
    checks: List[EndpointCheck] = []
    for endpoint in CHECKED_ENDPOINTS:
        sent = int(attempted.get(endpoint, 0))
        if sent == 0:
            continue
        old = int(counts_before.get(endpoint, {}).get("count", 0))
        new = int(counts_after.get(endpoint, {}).get("count", 0))
        checks.append(
            EndpointCheck(
                endpoint=endpoint,
                attempted=sent,
                unreachable=int(unreachable.get(endpoint, 0)),
                server_count=new - old,
            )
        )
    return checks


@dataclass
class LoadtestReport:
    """Everything one load-test run measured, renderable and JSON-able."""

    target: str
    seed: int
    threads: int
    target_rps: float
    duration_s: float
    #: wall-clock from first scheduled send to last completion
    elapsed_s: float
    #: operations attempted (one HTTP request each; weight may be >1)
    sent: int
    ok: int
    #: answered non-429 errors (4xx/5xx)
    errors: int
    #: admission refusals (the gate working, reported not budgeted)
    refused_429: int
    #: transport failures — never reached a healthy server
    unavailable: int
    #: flat planned-request units carried by the ok operations
    ok_weight: int
    error_budget: float
    #: merged client-side metrics payload (per-endpoint histograms)
    client_metrics: Dict[str, Any]
    #: server /metrics payloads around the run (raw, as fetched)
    server_before: Dict[str, Any] = field(default_factory=dict)
    server_after: Dict[str, Any] = field(default_factory=dict)
    checks: List[EndpointCheck] = field(default_factory=list)
    #: send-slot lag: how late the open-loop scheduler fired, p99 (ms)
    schedule_lag_p99_ms: float = 0.0
    #: 1-in-N trace sampling rate the run used (``None`` = no tracing)
    trace_sample: Optional[int] = None
    #: client root spans of the sampled operations, one per sampled op
    client_spans: List[Span] = field(default_factory=list)

    @property
    def achieved_rps(self) -> float:
        return self.sent / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def error_rate(self) -> float:
        return (
            (self.errors + self.unavailable) / self.sent if self.sent else 0.0
        )

    @property
    def p50_ms(self) -> float:
        return overall_latency_ms(self.client_metrics, 0.50)

    @property
    def p99_ms(self) -> float:
        return overall_latency_ms(self.client_metrics, 0.99)

    @property
    def server_check_ok(self) -> bool:
        return all(check.matched for check in self.checks)

    def trace_summary(self) -> Optional[Dict[str, Any]]:
        """The sampled-trace section of the report (``None`` untraced).

        The sampled root spans are the *client-observed* latency of the
        sampled operations; joining their trace ids against the
        target's ``--trace`` file (``repro trace``) attributes that
        tail stage by stage server-side.
        """
        if self.trace_sample is None:
            return None
        durations = sorted(span.duration_s for span in self.client_spans)

        def _q(q: float) -> float:
            return round(1000.0 * quantile(durations, q), 3)

        slowest = sorted(
            self.client_spans, key=lambda s: s.duration_s, reverse=True
        )
        return {
            "sample": self.trace_sample,
            "sampled": len(self.client_spans),
            "p50_ms": _q(0.50),
            "p99_ms": _q(0.99),
            "slowest": [
                {
                    "trace_id": span.trace_id,
                    "name": span.name,
                    "ms": round(1000.0 * span.duration_s, 3),
                }
                for span in slowest[:5]
            ],
            "trace_ids": [span.trace_id for span in self.client_spans],
        }

    @property
    def passed(self) -> bool:
        return self.error_rate <= self.error_budget and self.server_check_ok

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_dict(self) -> Dict[str, Any]:
        trace = self.trace_summary()
        return {
            "target": self.target,
            **({"trace": trace} if trace is not None else {}),
            "seed": self.seed,
            "threads": self.threads,
            "target_rps": self.target_rps,
            "duration_s": self.duration_s,
            "elapsed_s": round(self.elapsed_s, 4),
            "sent": self.sent,
            "ok": self.ok,
            "errors": self.errors,
            "refused_429": self.refused_429,
            "unavailable": self.unavailable,
            "ok_weight": self.ok_weight,
            "achieved_rps": round(self.achieved_rps, 2),
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "schedule_lag_p99_ms": round(self.schedule_lag_p99_ms, 3),
            "error_budget": self.error_budget,
            "error_rate": round(self.error_rate, 6),
            "server_check": [check.as_dict() for check in self.checks],
            "server_check_ok": self.server_check_ok,
            "verdict": self.verdict,
            "client_endpoints": self.client_metrics.get("endpoints", {}),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def write_client_spans(self, path: str) -> int:
        """Append the sampled client root spans to a JSONL span file.

        ``repro loadtest --trace-file PATH`` uses this so ``repro trace
        PATH SERVER_TRACE...`` can assemble *complete* traces — the
        client span is the root every server-side span hangs from.
        """
        with open(path, "a", encoding="utf-8") as stream:
            for span in self.client_spans:
                stream.write(span.to_json_line() + "\n")
        return len(self.client_spans)

    def render(self) -> str:
        """The human-facing summary ``repro loadtest`` prints."""
        lines = [
            f"loadtest against {self.target} "
            f"(seed={self.seed}, threads={self.threads})",
            f"  target: {self.target_rps:g} req/s for {self.duration_s:g}s"
            f" — sent {self.sent} requests in {self.elapsed_s:.2f}s",
            f"  achieved: {self.achieved_rps:.1f} req/s  "
            f"(schedule lag p99 {self.schedule_lag_p99_ms:.1f}ms)",
            f"  client latency: p50={self.p50_ms:.2f}ms "
            f"p99={self.p99_ms:.2f}ms",
            f"  outcomes: ok={self.ok} errors={self.errors} "
            f"429={self.refused_429} unreachable={self.unavailable}",
        ]
        endpoints = self.client_metrics.get("endpoints", {})
        for name in sorted(endpoints):
            ep = endpoints[name]
            lines.append(
                f"    {name:<12} count={ep['count']:>6} "
                f"errors={ep['errors']:>4} p50={ep['p50_ms']}ms "
                f"p99={ep['p99_ms']}ms"
            )
        if self.checks:
            lines.append("  server cross-check (/metrics deltas):")
            for check in self.checks:
                state = "ok" if check.matched else "MISMATCH"
                lines.append(
                    f"    {check.endpoint:<12} client={check.expected:>6} "
                    f"server={check.server_count:>6} {state}"
                )
        else:
            lines.append("  server cross-check: skipped")
        trace = self.trace_summary()
        if trace is not None:
            lines.append(
                f"  traces: 1-in-{trace['sample']} sampled "
                f"{trace['sampled']} ops — sampled p50={trace['p50_ms']}ms "
                f"p99={trace['p99_ms']}ms"
            )
            for slow in trace["slowest"][:3]:
                lines.append(
                    f"    {slow['trace_id']}  {slow['name']:<18} "
                    f"{slow['ms']:.2f}ms"
                )
        lines.append(
            f"  error budget: {self.error_rate:.4%} observed vs "
            f"{self.error_budget:.4%} allowed — verdict: {self.verdict}"
        )
        return "\n".join(lines)
