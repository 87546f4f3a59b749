"""Open-loop load-test driver for plan servers and cluster coordinators.

The driver replays a deterministic :func:`~repro.loadtest.stream.
request_stream` against a live target at a fixed rate.  It is
**open-loop**: operation ``i``'s send slot is ``start + i / rps``,
fixed before the run begins and independent of how long earlier
responses take.  A closed-loop driver (send, wait, send) silently
slows down when the server does — the coordinated-omission trap — and
reports flattering latencies for an overloaded system.  Here a slow
server faces the *same* arrival rate and the backlog shows up where it
belongs: in client-side p99 and in the scheduler-lag gauge.

Mechanics per worker thread:

* its own :class:`~repro.service.client.ServiceClient` with
  ``retries=0`` — one operation is exactly one HTTP request, which is
  what makes the client-vs-server count reconciliation exact rather
  than "roughly, modulo retries";
* its own :class:`~repro.service.metrics.ServerMetrics` for latency —
  no shared lock on the hot path; the per-thread payloads are merged
  losslessly by :func:`~repro.service.metrics.merge_metrics` when the
  run ends (the same machinery the coordinator uses on its workers);
* threads pull the next stream index from one shared counter, sleep
  until its slot, fire, classify the outcome.

Outcome taxonomy (mirrors the service error model):

==============  =====================================================
``ok``          answered 2xx (a cache miss answering ``None`` is ok)
``refused_429`` the admission gate said come back — backpressure
                working as designed; reported, not budgeted
``error``       any other *answered* error (4xx/5xx) — budgeted
``unavailable`` transport failure; the request never reached a
                healthy server — budgeted, and excluded from the
                server-side count reconciliation
==============  =====================================================

Each thread opens its pooled connection with one ``/healthz`` before
the clock starts, so the measured window contains planning traffic
only.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Dict, List, Mapping, Optional

from repro.loadtest.report import LoadtestReport, cross_check
from repro.loadtest.stream import Op, request_stream
from repro.obs import SpanRecorder, TraceContext, start_trace
from repro.service.client import (
    PlanServiceError,
    PlanServiceUnavailable,
    ServiceClient,
    service_url,
)
from repro.service.metrics import ServerMetrics, merge_metrics

#: synthetic status for transport failures (no server answer exists);
#: >= 400 so client-side histograms count them as errors
STATUS_UNREACHABLE = 599


class _Tally:
    """One thread's private outcome counters (merged after the join)."""

    __slots__ = (
        "ok", "errors", "refused_429", "unavailable", "ok_weight",
        "attempted", "unreachable", "lags_s",
    )

    def __init__(self) -> None:
        self.ok = 0
        self.errors = 0
        self.refused_429 = 0
        self.unavailable = 0
        self.ok_weight = 0
        self.attempted: Dict[str, int] = {}
        self.unreachable: Dict[str, int] = {}
        self.lags_s: List[float] = []


def _execute(
    client: ServiceClient, op: Op, trace: Optional[TraceContext] = None
) -> int:
    """Fire one operation; return the (possibly synthetic) HTTP status."""
    if op.kind == "plan":
        client.plan(op.payload, trace=trace)
    elif op.kind == "plan_batch":
        client.plan_items(op.payload, trace=trace)
    else:
        client.cache_get(op.payload, trace=trace)
    return 200


def _worker(
    base_url: str,
    timeout: float,
    ops: List[Op],
    rps: float,
    start: Dict[str, float],
    cursor: Dict[str, int],
    cursor_lock: threading.Lock,
    metrics: ServerMetrics,
    tally: _Tally,
    trace_sample: Optional[int] = None,
    recorder: Optional[SpanRecorder] = None,
) -> None:
    with ServiceClient(
        base_url, timeout=timeout, retries=0, span_recorder=recorder
    ) as client:
        # connect before the clock starts, so the thread's first
        # planning call pays no TCP handshake inside the measured window
        client.healthz()
        start["barrier"].wait()  # type: ignore[attr-defined]
        while True:
            with cursor_lock:
                index = cursor["next"]
                cursor["next"] += 1
            if index >= len(ops):
                return
            op = ops[index]
            slot = start["t0"] + index / rps
            wait = slot - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            tally.lags_s.append(max(0.0, time.monotonic() - slot))
            endpoint = op.endpoint
            tally.attempted[endpoint] = tally.attempted.get(endpoint, 0) + 1
            # sampling keys on the stream index, not the thread: whichever
            # thread pulls op N, the same deterministic 1-in-N slots trace
            trace = (
                start_trace()
                if trace_sample is not None and index % trace_sample == 0
                else None
            )
            began = time.perf_counter()
            try:
                status = _execute(client, op, trace)
            except PlanServiceUnavailable:
                status = STATUS_UNREACHABLE
                tally.unavailable += 1
                tally.unreachable[endpoint] = (
                    tally.unreachable.get(endpoint, 0) + 1
                )
            except PlanServiceError as exc:
                status = (
                    STATUS_UNREACHABLE if exc.code is None else exc.code
                )
                if exc.code == 429:
                    tally.refused_429 += 1
                elif exc.code is None:
                    # answered, but not with an HTTP status (wire-level
                    # refusal): budget it like any other answered error
                    tally.errors += 1
                else:
                    tally.errors += 1
            else:
                tally.ok += 1
                tally.ok_weight += op.weight
            metrics.observe(endpoint, status, time.perf_counter() - began)


def run_loadtest(
    target: str,
    *,
    rps: float = 50.0,
    duration: float = 5.0,
    mix: Optional[Mapping[str, float]] = None,
    seed: int = 2013,
    threads: int = 4,
    timeout: float = 10.0,
    error_budget: float = 0.01,
    batch_size: int = 8,
    p: int = 8,
    platforms: int = 4,
    strategy: str = "het",
    check_server: bool = True,
    ops: Optional[List[Op]] = None,
    trace_sample: Optional[int] = None,
) -> LoadtestReport:
    """Drive ``target`` at ``rps`` for ``duration`` seconds; report.

    ``target`` is any plan-serving base URL — a single
    :class:`~repro.service.server.PlanServer` or a
    :class:`~repro.cluster.coordinator.ClusterCoordinator` front door;
    the report's cross-check adapts to either ``/metrics`` shape.
    ``ops`` overrides the generated stream (tests inject hand-built
    ones); otherwise the stream is ``request_stream(ceil(rps *
    duration), seed=seed, ...)`` — deterministic, so two runs with one
    seed replay byte-identical traffic.

    ``check_server=False`` skips the ``/metrics`` snapshots (for
    targets that run with metrics disabled); the verdict then rests on
    the error budget alone.

    ``trace_sample=N`` tags every Nth stream operation with a fresh
    sampled trace context (``repro loadtest --trace-sample N``): the
    client records the root span per sampled op, the target — when run
    with ``--trace`` — records the server-side stages under the same
    trace id, and the report carries the sampled root spans so the
    measured tail can be attributed stage by stage (``repro trace``
    joins the two by id).
    """
    if rps <= 0:
        raise ValueError(f"rps must be > 0, got {rps}")
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if trace_sample is not None and trace_sample < 1:
        raise ValueError(f"trace_sample must be >= 1, got {trace_sample}")
    base_url = service_url(target)
    if ops is None:
        ops = request_stream(
            max(1, math.ceil(rps * duration)),
            seed=seed,
            mix=mix,
            platforms=platforms,
            p=p,
            batch_size=batch_size,
            strategy=strategy,
        )
    threads = min(threads, len(ops))

    # fail fast on an unreachable target, outside the measured window
    with ServiceClient(base_url, timeout=timeout, retries=0) as probe:
        probe.healthz()
        before: Dict[str, Any] = (
            probe.get_json("/metrics") if check_server else {}
        )

    barrier = threading.Barrier(threads + 1)
    start: Dict[str, Any] = {"barrier": barrier, "t0": 0.0}
    cursor = {"next": 0}
    cursor_lock = threading.Lock()
    tallies = [_Tally() for _ in range(threads)]
    metrics = [ServerMetrics() for _ in range(threads)]
    # one buffering recorder shared by every worker client (its lock is
    # only taken on sampled ops); drained into the report after the join
    recorder = (
        SpanRecorder(service="client") if trace_sample is not None else None
    )
    workers = [
        threading.Thread(
            target=_worker,
            name=f"repro-loadtest-{i}",
            args=(
                base_url, timeout, ops, rps, start, cursor, cursor_lock,
                metrics[i], tallies[i], trace_sample, recorder,
            ),
            daemon=True,
        )
        for i in range(threads)
    ]
    for worker in workers:
        worker.start()
    # every worker has connected once it reaches the barrier; the
    # clock starts only then
    start["t0"] = time.monotonic()
    barrier.wait()
    for worker in workers:
        worker.join()
    elapsed = time.monotonic() - start["t0"]

    after: Dict[str, Any] = {}
    if check_server:
        with probe:
            after = probe.get_json("/metrics")

    attempted: Dict[str, int] = {}
    unreachable: Dict[str, int] = {}
    lags: List[float] = []
    for tally in tallies:
        for endpoint, n in tally.attempted.items():
            attempted[endpoint] = attempted.get(endpoint, 0) + n
        for endpoint, n in tally.unreachable.items():
            unreachable[endpoint] = unreachable.get(endpoint, 0) + n
        lags.extend(tally.lags_s)
    lags.sort()
    lag_p99_s = lags[min(len(lags) - 1, int(0.99 * len(lags)))] if lags else 0.0

    checks = (
        cross_check(before, after, attempted, unreachable)
        if check_server
        else []
    )
    client_spans = recorder.drain() if recorder is not None else []
    return LoadtestReport(
        target=base_url,
        seed=seed,
        threads=threads,
        target_rps=float(rps),
        duration_s=float(duration),
        elapsed_s=elapsed,
        sent=sum(attempted.values()),
        ok=sum(t.ok for t in tallies),
        errors=sum(t.errors for t in tallies),
        refused_429=sum(t.refused_429 for t in tallies),
        unavailable=sum(t.unavailable for t in tallies),
        ok_weight=sum(t.ok_weight for t in tallies),
        error_budget=float(error_budget),
        client_metrics=merge_metrics(m.payload() for m in metrics),
        server_before=dict(before),
        server_after=dict(after),
        checks=checks,
        schedule_lag_p99_ms=1000.0 * lag_p99_s,
        trace_sample=trace_sample,
        client_spans=client_spans,
    )
