"""The load-test driver against live in-process servers.

The headline acceptance property lives here: the driver's client-side
request count matches the target's own ``/metrics`` count *exactly*,
for a single plan server and for a cluster coordinator front door.
"""

import time

import pytest

from repro.cluster.coordinator import ClusterCoordinator
from repro.loadtest import (
    EndpointCheck,
    LoadtestReport,
    cross_check,
    frontdoor_metrics,
    run_loadtest,
)
from repro.service.metrics import ServerMetrics
from repro.service.server import PlanServer


@pytest.fixture(scope="module")
def server():
    with PlanServer(backend="threaded", jobs=2) as srv:
        yield srv


class TestAgainstPlanServer:
    def test_counts_match_metrics_exactly(self, server):
        report = run_loadtest(
            server.url, rps=60, duration=0.5, threads=4, seed=21
        )
        assert report.sent == 30
        assert report.ok == 30
        assert report.errors == 0
        assert report.unavailable == 0
        assert report.checks, "cross-check ran"
        for check in report.checks:
            assert check.matched, check.as_dict()
        assert report.server_check_ok
        assert report.passed
        assert report.achieved_rps > 0

    def test_same_seed_same_traffic_counts(self, server):
        kwargs = dict(rps=40, duration=0.5, threads=2, seed=77)
        first = run_loadtest(server.url, **kwargs)
        second = run_loadtest(server.url, **kwargs)
        first_counts = {
            c.endpoint: c.attempted for c in first.checks
        }
        second_counts = {
            c.endpoint: c.attempted for c in second.checks
        }
        assert first_counts == second_counts

    def test_report_renders_and_serialises(self, server):
        report = run_loadtest(
            server.url, rps=30, duration=0.3, threads=2, seed=5
        )
        text = report.render()
        assert "verdict: pass" in text
        assert "server cross-check" in text
        payload = report.to_dict()
        assert payload["verdict"] == "pass"
        assert payload["sent"] == report.sent
        assert payload["server_check_ok"] is True

    def test_no_check_skips_metrics(self, server):
        report = run_loadtest(
            server.url,
            rps=30,
            duration=0.2,
            threads=2,
            seed=5,
            check_server=False,
        )
        assert report.checks == []
        assert report.server_check_ok  # vacuously
        assert report.passed

    def test_dead_target_fails_fast(self):
        # a port nothing listens on: the pre-run handshake raises
        # rather than emitting a report full of noise
        from repro.service.client import PlanServiceUnavailable

        with pytest.raises(PlanServiceUnavailable):
            run_loadtest(
                "http://127.0.0.1:9",
                rps=20,
                duration=0.2,
                threads=2,
                timeout=0.2,
            )

    def test_midrun_unavailable_budgeted_and_reconciled(
        self, server, monkeypatch
    ):
        # every op dies in transport mid-run: budgeted as unavailable,
        # and excluded from the server-side expectation — so the
        # cross-check still matches (the server truly saw nothing new)
        from repro.loadtest import driver as driver_module
        from repro.service.client import PlanServiceUnavailable

        def _always_down(client, op, trace=None):
            raise PlanServiceUnavailable("cable cut")

        monkeypatch.setattr(driver_module, "_execute", _always_down)
        report = run_loadtest(
            server.url, rps=30, duration=0.2, threads=2, seed=5
        )
        assert report.sent > 0
        assert report.unavailable == report.sent
        assert report.ok == 0
        assert report.server_check_ok  # expected = sent - unreachable = 0
        assert not report.passed  # but the error budget is blown

    def test_no_client_connection_left_open(self):
        with PlanServer(port=0, cache="memory") as fresh:
            run_loadtest(fresh.url, rps=40, duration=0.5, threads=2, seed=3)
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if fresh.metrics.payload()["connections"]["open"] == 0:
                    break
                time.sleep(0.01)
            connections = fresh.metrics.payload()["connections"]
        assert connections["open"] == 0
        # one per load thread, one per probe snapshot: none per request
        assert connections["accepted"] == 2 + 2

    def test_bad_arguments(self, server):
        with pytest.raises(ValueError):
            run_loadtest(server.url, rps=0)
        with pytest.raises(ValueError):
            run_loadtest(server.url, duration=0)
        with pytest.raises(ValueError):
            run_loadtest(server.url, threads=0)


class TestAgainstCoordinator:
    def test_counts_match_merged_metrics_exactly(self):
        with PlanServer(backend="serial") as w1, \
                PlanServer(backend="serial") as w2:
            with ClusterCoordinator(
                workers=[w1.url, w2.url], heartbeat_interval=30.0
            ) as coordinator:
                report = run_loadtest(
                    coordinator.url, rps=50, duration=0.6, threads=4,
                    seed=9,
                )
        assert report.sent == 30
        assert report.errors == 0
        assert report.unavailable == 0
        assert report.checks
        for check in report.checks:
            assert check.matched, check.as_dict()
        assert report.passed

    def test_frontdoor_extraction(self):
        metrics = ServerMetrics()
        metrics.observe("/plan", 200, 0.01)
        plain = metrics.payload()
        assert frontdoor_metrics(plain)["endpoints"]["/plan"]["count"] == 1
        nested = {"role": "coordinator", "coordinator": plain}
        assert frontdoor_metrics(nested)["endpoints"]["/plan"]["count"] == 1


class TestCrossCheck:
    def _payload(self, plan_count):
        metrics = ServerMetrics()
        for _ in range(plan_count):
            metrics.observe("/plan", 200, 0.001)
        return metrics.payload()

    def test_detects_dropped_requests(self):
        checks = cross_check(
            self._payload(0), self._payload(7), {"/plan": 10}, {}
        )
        assert len(checks) == 1
        assert not checks[0].matched
        assert checks[0].expected == 10
        assert checks[0].server_count == 7

    def test_unreachable_excluded_from_expectation(self):
        checks = cross_check(
            self._payload(0),
            self._payload(7),
            {"/plan": 10},
            {"/plan": 3},
        )
        assert checks[0].matched

    def test_mismatch_fails_the_verdict(self):
        report = LoadtestReport(
            target="http://x",
            wire_profile="binary-v2",
            seed=1,
            threads=1,
            target_rps=1.0,
            duration_s=1.0,
            elapsed_s=1.0,
            sent=10,
            ok=10,
            errors=0,
            refused_429=0,
            unavailable=0,
            ok_weight=10,
            error_budget=0.01,
            client_metrics={"endpoints": {}},
            checks=[
                EndpointCheck(
                    endpoint="/plan",
                    attempted=10,
                    unreachable=0,
                    server_count=9,
                )
            ],
        )
        assert not report.server_check_ok
        assert report.verdict == "fail"
        assert "MISMATCH" in report.render()

    def test_error_budget_breach_fails(self):
        report = LoadtestReport(
            target="http://x",
            wire_profile="binary-v2",
            seed=1,
            threads=1,
            target_rps=1.0,
            duration_s=1.0,
            elapsed_s=1.0,
            sent=100,
            ok=97,
            errors=3,
            refused_429=0,
            unavailable=0,
            ok_weight=97,
            error_budget=0.01,
            client_metrics={"endpoints": {}},
        )
        assert report.error_rate == pytest.approx(0.03)
        assert not report.passed

    def test_429s_not_budgeted(self):
        report = LoadtestReport(
            target="http://x",
            wire_profile="binary-v2",
            seed=1,
            threads=1,
            target_rps=1.0,
            duration_s=1.0,
            elapsed_s=1.0,
            sent=100,
            ok=60,
            errors=0,
            refused_429=40,
            unavailable=0,
            ok_weight=60,
            error_budget=0.01,
            client_metrics={"endpoints": {}},
        )
        assert report.error_rate == 0.0
        assert report.passed
