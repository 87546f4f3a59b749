"""ServerMetrics / AdmissionGate units + the /metrics endpoint + 429s."""

import time
import urllib.error
import urllib.request

import pytest

from repro.core.pipeline import PlanRequest
from repro.platform.star import StarPlatform
from repro.service.client import PlanServiceError, ServiceClient
from repro.service.metrics import (
    LATENCY_BUCKETS_S,
    AdmissionGate,
    ServerMetrics,
    merge_metrics,
    prometheus_exposition,
)
from repro.service.server import PlanServer


class TestServerMetrics:
    def test_counts_and_errors(self):
        metrics = ServerMetrics()
        metrics.observe("/plan", 200, 0.002)
        metrics.observe("/plan", 200, 0.004)
        metrics.observe("/plan", 500, 0.001)
        endpoint = metrics.payload()["endpoints"]["/plan"]
        assert endpoint["count"] == 3
        assert endpoint["errors"] == 1

    def test_status_below_400_is_not_an_error(self):
        metrics = ServerMetrics()
        metrics.observe("/plan", 200, 0.001)
        metrics.observe("/plan", 399, 0.001)
        assert metrics.payload()["endpoints"]["/plan"]["errors"] == 0

    def test_histogram_buckets(self):
        metrics = ServerMetrics()
        metrics.observe("/x", 200, 0.0005)  # first bucket (<= 1ms)
        metrics.observe("/x", 200, 99.0)  # overflow bucket
        buckets = metrics.payload()["endpoints"]["/x"]["buckets"]
        assert len(buckets) == len(LATENCY_BUCKETS_S) + 1
        assert buckets[0] == 1
        assert buckets[-1] == 1

    def test_percentiles_clamped_to_observed_max(self):
        metrics = ServerMetrics()
        for _ in range(100):
            metrics.observe("/x", 200, 0.0004)
        endpoint = metrics.payload()["endpoints"]["/x"]
        # every observation sits in the 1ms bucket, but the true max is
        # 0.4ms — percentiles must not report the invented bucket edge
        assert endpoint["p50_ms"] == pytest.approx(0.4)
        assert endpoint["p99_ms"] == pytest.approx(0.4)
        assert endpoint["mean_ms"] == pytest.approx(0.4)

    def test_overflow_percentile_uses_max(self):
        metrics = ServerMetrics()
        metrics.observe("/x", 200, 42.0)
        assert metrics.payload()["endpoints"]["/x"]["p99_ms"] == pytest.approx(
            42_000.0
        )

    def test_empty_payload(self):
        payload = ServerMetrics().payload()
        assert payload["endpoints"] == {}
        assert payload["latency_buckets_s"] == list(LATENCY_BUCKETS_S)
        assert payload["uptime_s"] >= 0

    def test_uptime_immune_to_wall_clock_steps(self, monkeypatch):
        """Regression: uptime used time.time(), so an NTP step (or any
        wall-clock jump) made uptime_s leap or go negative."""
        import repro.service.metrics as metrics_module

        metrics = ServerMetrics()
        # a wall-clock step back to the epoch must not touch uptime
        monkeypatch.setattr(metrics_module.time, "time", lambda: 0.0)
        uptime = metrics.payload()["uptime_s"]
        assert 0 <= uptime < 60

    def test_uptime_grows_with_monotonic_clock(self, monkeypatch):
        import repro.service.metrics as metrics_module

        real_monotonic = time.monotonic
        metrics = ServerMetrics()
        monkeypatch.setattr(
            metrics_module.time, "monotonic", lambda: real_monotonic() + 12.0
        )
        assert metrics.payload()["uptime_s"] >= 12.0

    def test_connection_counters(self):
        metrics = ServerMetrics()
        assert metrics.payload()["connections"] == {"accepted": 0, "open": 0}
        metrics.connection_opened()
        metrics.connection_opened()
        metrics.connection_closed()
        assert metrics.payload()["connections"] == {"accepted": 2, "open": 1}

    def test_thread_safety_smoke(self):
        import threading

        metrics = ServerMetrics()

        def hammer():
            for _ in range(500):
                metrics.observe("/x", 200, 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert metrics.payload()["endpoints"]["/x"]["count"] == 2000


class TestMergeMetrics:
    def _one(self, count, errors=0, seconds=0.002, max_s=None):
        metrics = ServerMetrics()
        for _ in range(count - errors):
            metrics.observe("/plan", 200, seconds)
        for _ in range(errors):
            metrics.observe("/plan", 500, max_s or seconds)
        return metrics.payload()

    def test_sums_counts_and_buckets(self):
        merged = merge_metrics([self._one(5), self._one(7, errors=2)])
        endpoint = merged["endpoints"]["/plan"]
        assert endpoint["count"] == 12
        assert endpoint["errors"] == 2
        assert sum(endpoint["buckets"]) == 12

    def test_max_is_max_of_maxima(self):
        merged = merge_metrics(
            [self._one(2, seconds=0.001), self._one(1, seconds=0.3)]
        )
        assert merged["endpoints"]["/plan"]["max_s"] == pytest.approx(0.3)

    def test_merge_of_none_is_empty(self):
        assert merge_metrics([])["endpoints"] == {}

    def test_disjoint_endpoints_both_survive(self):
        a = ServerMetrics()
        a.observe("/plan", 200, 0.001)
        b = ServerMetrics()
        b.observe("/cache/get", 200, 0.001)
        merged = merge_metrics([a.payload(), b.payload()])
        assert set(merged["endpoints"]) == {"/plan", "/cache/get"}

    def test_connections_sum(self):
        a, b = ServerMetrics(), ServerMetrics()
        a.connection_opened()
        b.connection_opened()
        b.connection_opened()
        b.connection_closed()
        # a payload without the field (an older server) adds nothing
        legacy = {"endpoints": {}}
        merged = merge_metrics([a.payload(), b.payload(), legacy])
        assert merged["connections"] == {"accepted": 3, "open": 2}

    def test_foreign_bucket_grid_rejected(self):
        payload = ServerMetrics().payload()
        payload["latency_buckets_s"] = [1.0, 2.0]
        with pytest.raises(ValueError, match="bucket grid"):
            merge_metrics([payload])


class TestPrometheusExposition:
    def payload(self):
        metrics = ServerMetrics()
        metrics.observe("/plan", 200, 0.001)
        metrics.observe("/plan", 500, 2.0)
        metrics.observe("/cache/get", 200, 0.0001)
        return metrics.payload()

    def test_counters_per_endpoint(self):
        text = prometheus_exposition(self.payload())
        assert 'repro_requests_total{endpoint="/plan"} 2' in text
        assert 'repro_request_errors_total{endpoint="/plan"} 1' in text
        assert 'repro_requests_total{endpoint="/cache/get"} 1' in text
        assert "# TYPE repro_requests_total counter" in text
        assert "# TYPE repro_uptime_seconds gauge" in text
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative(self):
        text = prometheus_exposition(self.payload())
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith(
                'repro_request_duration_seconds_bucket{endpoint="/plan"'
            )
        ]
        # one series per internal bound plus the +Inf overflow
        assert len(counts) == len(LATENCY_BUCKETS_S) + 1
        assert counts == sorted(counts)
        assert counts[-1] == 2  # +Inf covers everything observed
        assert (
            'repro_request_duration_seconds_bucket'
            '{endpoint="/plan",le="+Inf"} 2' in text
        )
        assert (
            'repro_request_duration_seconds_count{endpoint="/plan"} 2'
            in text
        )

    def test_sum_matches_observed_total(self):
        text = prometheus_exposition(self.payload())
        (sum_line,) = [
            line
            for line in text.splitlines()
            if line.startswith(
                'repro_request_duration_seconds_sum{endpoint="/plan"}'
            )
        ]
        assert float(sum_line.rsplit(" ", 1)[1]) == pytest.approx(
            2.001, rel=1e-6
        )

    def test_merged_payload_renders_too(self):
        a, b = ServerMetrics(), ServerMetrics()
        a.observe("/plan", 200, 0.01)
        b.observe("/plan", 200, 0.02)
        text = prometheus_exposition(
            merge_metrics([a.payload(), b.payload()])
        )
        assert 'repro_requests_total{endpoint="/plan"} 2' in text

    def test_connection_series(self):
        metrics = ServerMetrics()
        for _ in range(3):
            metrics.connection_opened()
        metrics.connection_closed()
        text = prometheus_exposition(metrics.payload())
        assert "# TYPE repro_connections_accepted_total counter" in text
        assert "repro_connections_accepted_total 3\n" in text
        assert "# TYPE repro_connections_open gauge" in text
        assert "repro_connections_open 2\n" in text

    def test_empty_payload_renders_headers_only(self):
        text = prometheus_exposition(ServerMetrics().payload())
        assert "repro_uptime_seconds" in text
        assert "repro_requests_total{" not in text


class TestAdmissionGate:
    def test_unlimited_by_default(self):
        gate = AdmissionGate(None)
        assert all(gate.try_acquire() for _ in range(1000))

    def test_limit_enforced_and_released(self):
        gate = AdmissionGate(2)
        assert gate.try_acquire()
        assert gate.try_acquire()
        assert not gate.try_acquire()
        gate.release()
        assert gate.try_acquire()
        assert gate.inflight == 2

    def test_limit_zero_always_refuses(self):
        assert not AdmissionGate(0).try_acquire()

    def test_release_never_negative(self):
        gate = AdmissionGate(1)
        gate.release()
        assert gate.inflight == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionGate(-1)


class TestMetricsEndpoint:
    @pytest.fixture()
    def server(self):
        with PlanServer(port=0, cache="memory") as srv:
            yield srv

    @pytest.fixture()
    def platform(self):
        return StarPlatform.from_speeds([1.0, 2.0, 4.0])

    def test_per_endpoint_counts(self, server, platform):
        client = ServiceClient(server.url)
        request = PlanRequest(platform=platform, N=100.0, strategy="het")
        client.plan(request)
        client.plan(request)
        client.cache_stats()
        payload = client.get_json("/metrics")
        endpoints = payload["endpoints"]
        assert endpoints["/plan"]["count"] == 2
        assert endpoints["/plan"]["errors"] == 0
        assert endpoints["/cache/stats"]["count"] == 1
        assert endpoints["/plan"]["p50_ms"] > 0

    def test_unknown_paths_aggregate_as_other(self, server):
        for path in ("/nope", "/also/nope"):
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"{server.url}{path}", timeout=5)
        payload = ServiceClient(server.url).get_json("/metrics")
        assert payload["endpoints"]["other"]["count"] == 2
        assert payload["endpoints"]["other"]["errors"] == 2
        assert "/nope" not in payload["endpoints"]

    def test_health_advertises_max_inflight(self, server):
        assert ServiceClient(server.url).healthz()["max_inflight"] is None


class TestServerAdmission:
    @pytest.fixture()
    def platform(self):
        return StarPlatform.from_speeds([1.0, 2.0])

    def test_full_server_answers_429_with_retry_after(self, platform):
        with PlanServer(port=0, max_inflight=0) as server:
            from repro.service import wire

            request = PlanRequest(platform=platform, N=10.0, strategy="het")
            raw = urllib.request.Request(
                f"{server.url}/plan",
                data=wire.pack_v2(request),
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(raw, timeout=5)
            assert err.value.code == 429
            assert err.value.headers.get("Retry-After") == "0.5"

    def test_429s_show_up_in_metrics(self, platform):
        with PlanServer(port=0, max_inflight=0) as server:
            client = ServiceClient(server.url, retries=0)
            request = PlanRequest(platform=platform, N=10.0, strategy="het")
            with pytest.raises(PlanServiceError):
                client.plan(request)
            endpoint = client.get_json("/metrics")["endpoints"]["/plan"]
            assert endpoint["count"] == 1
            assert endpoint["errors"] == 1

    def test_cache_endpoints_not_admission_gated(self, platform):
        # admission protects *planning*; the cheap cache/control calls
        # must keep answering so clients can probe a busy server
        with PlanServer(port=0, max_inflight=0, cache="memory") as server:
            client = ServiceClient(server.url, retries=0)
            assert client.cache_get(("any", "key")) is None
            assert client.cache_stats()["cache"] == "on"
