"""Trace sampling in the driver and the latency-under-SLO search."""

import math
from types import SimpleNamespace

import pytest

from repro.loadtest import (
    SloSearchResult,
    find_max_rps,
    run_loadtest,
)
from repro.loadtest.report import LoadtestReport
from repro.loadtest.slo import MAX_DOUBLINGS
from repro.obs import Span, SpanRecorder, assemble_traces, stage_stats
from repro.service.server import PlanServer


@pytest.fixture(scope="module")
def server():
    with PlanServer() as srv:
        yield srv


class TestDriverTraceSampling:
    def test_one_in_n_ops_sampled(self, server):
        report = run_loadtest(
            server.url, rps=40, duration=0.5, threads=2, seed=9,
            trace_sample=4,
        )
        assert report.trace_sample == 4
        # ops 0, 4, 8, ... of the 20-op stream
        assert len(report.client_spans) == math.ceil(report.sent / 4)
        ids = [span.trace_id for span in report.client_spans]
        assert len(set(ids)) == len(ids)  # one fresh trace per sampled op
        assert all(span.service == "client" for span in report.client_spans)
        assert all(
            span.parent_id is None for span in report.client_spans
        )  # loadtest spans are roots: the trace starts at the client

    def test_trace_section_in_report(self, server):
        report = run_loadtest(
            server.url, rps=30, duration=0.3, threads=2, seed=9,
            trace_sample=3,
        )
        payload = report.to_dict()
        assert payload["trace"]["sample"] == 3
        assert payload["trace"]["sampled"] == len(report.client_spans)
        assert payload["trace"]["p99_ms"] >= payload["trace"]["p50_ms"] >= 0
        assert len(payload["trace"]["slowest"]) <= 5
        assert "traces: 1-in-3 sampled" in report.render()

    def test_summary_quantiles_are_repro_traces(self):
        # 100 client spans of 1..100 ms: p50 50 ms and p99 99 ms, the
        # same figures `repro trace` prints for them
        spans = [
            Span(
                trace_id=f"{i:016x}",
                span_id=f"{i:08x}",
                parent_id=None,
                name="client /plan",
                service="client",
                start_s=0.0,
                duration_s=i / 1000.0,
            )
            for i in range(1, 101)
        ]
        report = LoadtestReport(
            target="t", seed=0, threads=1, target_rps=1.0, duration_s=1.0,
            elapsed_s=1.0, sent=100, ok=100, errors=0, refused_429=0,
            unavailable=0, ok_weight=100, error_budget=0.0,
            client_metrics={}, trace_sample=1, client_spans=spans,
        )
        summary = report.trace_summary()
        (stage,) = stage_stats(assemble_traces(spans))
        assert summary["p50_ms"] == round(1000.0 * stage.p50_s, 3) == 50.0
        assert summary["p99_ms"] == round(1000.0 * stage.p99_s, 3) == 99.0

    def test_untraced_run_has_no_trace_section(self, server):
        report = run_loadtest(
            server.url, rps=30, duration=0.2, threads=2, seed=9
        )
        assert report.trace_sample is None
        assert report.client_spans == []
        assert "trace" not in report.to_dict()
        assert "traces:" not in report.render()

    def test_client_spans_join_server_spans(self):
        recorder = SpanRecorder(service="server")
        with PlanServer(span_recorder=recorder) as traced:
            report = run_loadtest(
                traced.url, rps=30, duration=0.3, threads=2, seed=9,
                trace_sample=2,
            )
            import time

            time.sleep(0.3)  # server roots close after the response
        spans = report.client_spans + recorder.drain()
        traces = assemble_traces(spans)
        sampled_ids = {span.trace_id for span in report.client_spans}
        assert {t.trace_id for t in traces} == sampled_ids
        assert all(t.complete for t in traces)

    def test_write_client_spans(self, server, tmp_path):
        from repro.obs import read_spans

        report = run_loadtest(
            server.url, rps=30, duration=0.2, threads=2, seed=9,
            trace_sample=2,
        )
        path = str(tmp_path / "client.jsonl")
        count = report.write_client_spans(path)
        assert count == len(report.client_spans)
        # identity round-trips; timings are microsecond-rounded on disk
        read_back = read_spans([path])
        assert [(s.trace_id, s.span_id, s.name) for s in read_back] == [
            (s.trace_id, s.span_id, s.name) for s in report.client_spans
        ]
        for disk, mem in zip(read_back, report.client_spans):
            assert disk.duration_s == pytest.approx(mem.duration_s, abs=1e-6)

    def test_trace_sample_validated(self, server):
        with pytest.raises(ValueError, match="trace_sample"):
            run_loadtest(server.url, rps=10, duration=0.1, trace_sample=0)


def fake_runner_with_cliff(cliff_rps, budget_fail_above=None):
    """A runner whose p99 crosses the SLO exactly above ``cliff_rps``."""
    calls = []

    def runner(target, *, rps, duration, **kwargs):
        calls.append(rps)
        passed = (
            budget_fail_above is None or rps <= budget_fail_above
        )
        return SimpleNamespace(
            p99_ms=10.0 if rps <= cliff_rps else 500.0,
            error_rate=0.0 if passed else 0.5,
            passed=passed,
        )

    runner.calls = calls
    return runner


class TestFindMaxRps:
    def test_floor_failure_stops_after_one_probe(self):
        runner = fake_runner_with_cliff(cliff_rps=5.0)
        result = find_max_rps(
            "x", slo_p99_ms=50.0, start_rps=20.0, runner=runner
        )
        assert not result.found
        assert result.max_rps == 0.0
        assert runner.calls == [20.0]
        assert "no probed rate met the SLO" in result.render()

    def test_brackets_and_bisects_the_cliff(self):
        runner = fake_runner_with_cliff(cliff_rps=100.0)
        result = find_max_rps(
            "x", slo_p99_ms=50.0, start_rps=20.0, runner=runner
        )
        assert result.found
        # ramp: 20 ok, 40 ok, 80 ok, 160 fail; bisect inside (80, 160)
        assert runner.calls[:4] == [20.0, 40.0, 80.0, 160.0]
        assert 80.0 <= result.max_rps <= 100.0
        # the bisection got within 10% of the bracket's upper edge
        failing = [p.rps for p in result.probes if not p.ok]
        assert min(failing) - result.max_rps <= 0.10 * min(failing)
        # every probe is on the audit trail, ordered by execution
        assert [p.rps for p in result.probes] == runner.calls

    def test_error_budget_failures_also_fail_probes(self):
        # latency fine at every rate, but the budget blows above 60
        runner = fake_runner_with_cliff(
            cliff_rps=1e9, budget_fail_above=60.0
        )
        result = find_max_rps(
            "x", slo_p99_ms=50.0, start_rps=20.0, runner=runner
        )
        assert result.found
        assert result.max_rps <= 60.0
        failed = [p for p in result.probes if not p.ok]
        assert failed and not failed[0].passed_budget

    def test_never_failing_target_stops_at_ramp_cap(self):
        runner = fake_runner_with_cliff(cliff_rps=float("inf"))
        result = find_max_rps(
            "x", slo_p99_ms=50.0, start_rps=10.0, runner=runner
        )
        assert result.found
        assert result.max_rps == 10.0 * 2**MAX_DOUBLINGS
        assert len(runner.calls) == 1 + MAX_DOUBLINGS

    def test_best_report_is_kept(self):
        runner = fake_runner_with_cliff(cliff_rps=100.0)
        result = find_max_rps(
            "x", slo_p99_ms=50.0, start_rps=20.0, runner=runner
        )
        assert result.best_report is not None
        assert result.best_report.p99_ms == 10.0

    def test_to_dict_and_json(self):
        runner = fake_runner_with_cliff(cliff_rps=100.0)
        result = find_max_rps(
            "x", slo_p99_ms=50.0, start_rps=20.0, runner=runner
        )
        payload = result.to_dict()
        assert payload["found"] is True
        assert payload["slo_p99_ms"] == 50.0
        assert len(payload["probes"]) == len(result.probes)
        assert result.to_json().startswith("{")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"slo_p99_ms": 0.0},
            {"slo_p99_ms": 50.0, "start_rps": 0.0},
            {"slo_p99_ms": 50.0, "rounds": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            find_max_rps("x", runner=lambda *a, **k: None, **kwargs)

    def test_against_a_live_server(self, server):
        """One real (tiny) search against an in-process plan server."""
        result = find_max_rps(
            server.url,
            slo_p99_ms=5_000.0,  # generous: the probe should pass
            start_rps=20.0,
            duration=0.2,
            rounds=0,
            threads=2,
            seed=11,
        )
        assert isinstance(result, SloSearchResult)
        assert result.probes[0].ok
        assert result.found
