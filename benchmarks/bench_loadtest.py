"""Benchmark for the load-test driver: sustained RPS against one server.

The operability tentpole's number: how much open-loop traffic the
stack (driver + wire + server + session) sustains on this host with a
clean verdict.  The target rate is set well above what one container
CPU serves comfortably, so ``achieved_rps`` measures the pipeline, not
the scheduler's politeness — if planning, the wire, or the driver
regress, fewer requests complete per wall-clock second and the metric
drops.

The run must also be *clean*: zero answered errors, zero transport
failures, and the client/server request-count cross-check matching
exactly — a loadtest that miscounts its own traffic measures nothing.

Two riders on the same harness:

- the *tracing tax*: the untraced throughput number above runs with
  tracing fully off, and the tracing layer's dormant cost (one
  context-var read per seam) must not move it — the trendline diff
  holds the regression under the tolerance.  A second, sampled run
  reports what 1-in-10 tracing costs, informationally.
- the *SLO search*: ``find_max_rps`` ramps + bisects a real server to
  the highest rate whose p99 holds an SLO, reported informationally
  (its absolute value is host noise; the probe ladder executing
  end-to-end is the point).

Emits ``BENCH {...}`` lines; ``scripts/check_bench.py`` diffs them
against ``BENCH_loadtest.json``.
"""

import json
import os

from repro.loadtest import find_max_rps, run_loadtest
from repro.service.server import PlanServer

TARGET_RPS = 240.0
DURATION_S = 2.0
THREADS = 8
SEED = 20130521


def test_loadtest_sustained_throughput():
    with PlanServer() as server:
        report = run_loadtest(
            server.url,
            rps=TARGET_RPS,
            duration=DURATION_S,
            threads=THREADS,
            seed=SEED,
        )

    print()
    print(
        "BENCH "
        + json.dumps(
            {
                "name": "loadtest_throughput",
                "cpu_count": os.cpu_count() or 1,
                "target_rps": TARGET_RPS,
                "sent": report.sent,
                "achieved_rps": round(report.achieved_rps, 1),
                "p50_ms": report.p50_ms,
                "p99_ms": report.p99_ms,
                "schedule_lag_p99_ms": round(report.schedule_lag_p99_ms, 1),
            }
        )
    )

    # a dirty run measures nothing: the throughput number only counts
    # when every request succeeded and the books balance
    assert report.errors == 0, report.render()
    assert report.unavailable == 0, report.render()
    assert report.refused_429 == 0, report.render()
    assert report.server_check_ok, report.render()
    assert report.achieved_rps > 0


def test_loadtest_traced_throughput():
    """The same run with 1-in-10 sampling: what tracing costs, live."""
    with PlanServer() as server:
        report = run_loadtest(
            server.url,
            rps=TARGET_RPS,
            duration=DURATION_S,
            threads=THREADS,
            seed=SEED,
            trace_sample=10,
        )

    print()
    print(
        "BENCH "
        + json.dumps(
            {
                "name": "loadtest_traced_throughput",
                "cpu_count": os.cpu_count() or 1,
                "target_rps": TARGET_RPS,
                "trace_sample": 10,
                "sent": report.sent,
                "sampled": len(report.client_spans),
                "achieved_rps": round(report.achieved_rps, 1),
                "p99_ms": report.p99_ms,
            }
        )
    )

    assert report.errors == 0, report.render()
    assert report.server_check_ok, report.render()
    assert report.client_spans, "sampling produced no client spans"


def test_slo_search_finds_a_sustainable_rate():
    """``find_max_rps`` ramps + bisects a live server under a real SLO."""
    with PlanServer() as server:
        result = find_max_rps(
            server.url,
            slo_p99_ms=250.0,
            start_rps=40.0,
            duration=1.0,
            rounds=2,
            threads=THREADS,
            seed=SEED,
        )

    print()
    print(
        "BENCH "
        + json.dumps(
            {
                "name": "loadtest_slo_search",
                "cpu_count": os.cpu_count() or 1,
                "slo_p99_ms": result.slo_p99_ms,
                "max_rps": round(result.max_rps, 1),
                "probes": len(result.probes),
            }
        )
    )

    # the floor must hold on any host this runs on; the ceiling is
    # whatever the ramp + bisection found, recorded on the trendline
    assert result.found, result.render()
    assert result.max_rps >= 40.0
    assert result.probes[0].ok, result.render()
