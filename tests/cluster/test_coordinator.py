"""ClusterCoordinator against in-process workers: the acceptance contract.

* the coordinator is a drop-in plan server: remote sessions pointed at
  it reproduce local planning bit-identically (rtol=1e-12), scalar and
  vectorised;
* killing a worker mid-pool transparently reroutes to survivors with
  identical results;
* membership is the workers it was built with: no route adds one;
* admission control answers 429 + Retry-After; no workers answers 503;
* worker protocol errors are relayed, not retried;
* /metrics aggregates workers into one cluster histogram.
"""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cluster.coordinator import ClusterCoordinator, NoWorkersError
from repro.core.pipeline import PlanRequest
from repro.core.session import PlannerSession
from repro.platform.star import StarPlatform
from repro.service.client import PlanServiceError, ServiceClient
from repro.service.server import PlanServer


@pytest.fixture()
def platform():
    return StarPlatform.from_speeds([1.0, 2.0, 4.0, 8.0])


@pytest.fixture()
def workers():
    servers = [PlanServer(port=0, cache="memory").start() for _ in range(3)]
    yield servers
    for server in servers:
        server.close()


@pytest.fixture()
def coordinator(workers):
    coord = ClusterCoordinator(
        port=0,
        workers=[w.url for w in workers],
        heartbeat_interval=0.2,
        max_missed=2,
    )
    with coord:
        yield coord


def _requests(platform, count, strategy="het"):
    return [
        PlanRequest(platform=platform, N=1000.0 + i, strategy=strategy)
        for i in range(count)
    ]


def assert_same_results(actual, expected):
    assert len(actual) == len(expected)
    for a, b in zip(actual, expected):
        assert a.request == b.request
        np.testing.assert_allclose(
            a.plan.finish_times, b.plan.finish_times, rtol=1e-12
        )
        np.testing.assert_allclose(
            a.plan.makespan, b.plan.makespan, rtol=1e-12
        )


class TestFrontDoor:
    def test_healthz_shape(self, coordinator):
        health = ServiceClient(coordinator.url).healthz()
        assert health["status"] == "ok"
        assert health["role"] == "coordinator"
        assert health["workers_alive"] == 3
        assert health["workers_total"] == 3
        assert health["wire_profiles"] == ["binary-v2"]
        assert "dispatch" not in health

    def test_status_payload(self, coordinator):
        status = json.loads(
            urllib.request.urlopen(
                f"{coordinator.url}/cluster/status", timeout=5
            )
            .read()
            .decode()
        )
        assert status["pool"]["alive"] == 3
        assert len(status["pool"]["workers"]) == 3

    def test_status_has_no_dispatch_field(self, coordinator, platform):
        ServiceClient(coordinator.url).plan(
            PlanRequest(platform=platform, N=10.0, strategy="het")
        )
        status = ServiceClient(coordinator.url).get_json("/cluster/status")
        assert "dispatch" not in status
        assert status["pool"]["total"] == 3
        workers = status["pool"]["workers"]
        assert sum(w["dispatched"] for w in workers) == 1
        assert all(w["failures"] == 0 for w in workers)

    def test_single_plan_roundtrip(self, coordinator, platform):
        request = PlanRequest(platform=platform, N=1234.0, strategy="het")
        via_cluster = ServiceClient(coordinator.url).plan(request)
        with PlannerSession(cache=False) as session:
            local = session.plan(request)
        assert_same_results([via_cluster], [local])

    def test_unknown_endpoint_404(self, coordinator):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{coordinator.url}/nope", timeout=5)
        assert err.value.code == 404


class TestEquivalence:
    @pytest.mark.parametrize("profile", ["binary-v2"])
    def test_remote_session_matches_local(
        self, coordinator, platform, profile
    ):
        requests = _requests(platform, 10)
        address = f"{coordinator.host}:{coordinator.port}"
        from repro.service.client import RemoteBackend

        backend = RemoteBackend(address)
        assert backend.client.wire_profile() == profile
        with PlannerSession(backend=backend, cache=False) as remote:
            actual = remote.plan_batch(requests)
        with PlannerSession(cache=False) as local:
            expected = local.plan_batch(requests)
        assert_same_results(actual, expected)

    def test_vectorized_sweep_shards_and_matches(
        self, coordinator, workers, platform
    ):
        # a vectorised client fuses the sweep into one VectorGroup;
        # the coordinator must shard it across workers (scale-out!)
        # and reassemble bit-identically
        requests = _requests(platform, 12)
        address = f"{coordinator.host}:{coordinator.port}"
        with PlannerSession(
            backend=f"remote:{address}", cache=False, vectorize=True
        ) as remote:
            actual = remote.plan_batch(requests)
        with PlannerSession(cache=False, vectorize=False) as local:
            expected = local.plan_batch(requests)
        assert_same_results(actual, expected)
        planned_by = [
            w for w in workers if w.metrics.payload()["endpoints"]
        ]
        assert len(planned_by) > 1, "sweep was not sharded across workers"

    def test_mixed_strategies_batch(self, coordinator, platform):
        requests = _requests(platform, 4, "het") + _requests(
            platform, 4, "hom"
        )
        address = f"{coordinator.host}:{coordinator.port}"
        with PlannerSession(backend=f"remote:{address}", cache=False) as remote:
            actual = remote.plan_batch(requests)
        with PlannerSession(cache=False) as local:
            expected = local.plan_batch(requests)
        assert_same_results(actual, expected)

    def test_empty_batch(self, coordinator):
        assert ServiceClient(coordinator.url).plan_items([]) == []


class TestReroute:
    def test_worker_death_mid_pool_reroutes(
        self, coordinator, workers, platform
    ):
        requests = _requests(platform, 8)
        address = f"{coordinator.host}:{coordinator.port}"
        with PlannerSession(cache=False) as local:
            expected = local.plan_batch(requests)
        with PlannerSession(backend=f"remote:{address}", cache=False) as remote:
            assert_same_results(remote.plan_batch(requests), expected)
            workers[0].close()  # dies without deregistering
            assert_same_results(remote.plan_batch(requests), expected)
        snapshot = coordinator.pool.snapshot()
        dead = [w for w in snapshot["workers"] if not w["alive"]]
        assert len(dead) == 1
        assert "unreachable" in dead[0]["reason"]

    def test_all_workers_dead_is_503(self, coordinator, workers, platform):
        for worker in workers:
            worker.close()
        request = PlanRequest(platform=platform, N=10.0, strategy="het")
        client = ServiceClient(coordinator.url, retries=0)
        with pytest.raises(PlanServiceError) as err:
            client.plan(request)
        assert err.value.code == 503

    def test_heartbeat_monitor_marks_dead_without_traffic(
        self, coordinator, workers
    ):
        import time

        workers[1].close()
        deadline = time.time() + 10
        while time.time() < deadline:
            if len(coordinator.pool.alive()) == 2:
                break
            time.sleep(0.05)
        assert len(coordinator.pool.alive()) == 2

    def test_worker_rejoins_after_heartbeat(self, coordinator, workers):
        import time

        url = workers[2].url
        coordinator.pool.mark_dead(url, "test")
        deadline = time.time() + 10
        while time.time() < deadline:
            if len(coordinator.pool.alive()) == 3:
                break
            time.sleep(0.05)
        assert len(coordinator.pool.alive()) == 3  # pull probe revived it


class TestCacheRouting:
    def test_cache_put_then_get_roundtrip(self, coordinator, platform):
        client = ServiceClient(coordinator.url)
        request = PlanRequest(platform=platform, N=55.0, strategy="het")
        result = client.plan(request)
        client.cache_put(("custom", "key"), result)
        fetched = client.cache_get(("custom", "key"))
        assert_same_results([fetched], [result])

    def test_cache_clear_broadcasts(self, coordinator, workers, platform):
        client = ServiceClient(coordinator.url)
        for n in (10.0, 20.0, 30.0):
            client.plan(
                PlanRequest(platform=platform, N=n, strategy="het")
            )
        assert sum(len(w.store()) for w in workers) == 3
        client.cache_clear()
        assert sum(len(w.store()) for w in workers) == 0

    def test_cache_stats_aggregates(self, coordinator, workers, platform):
        client = ServiceClient(coordinator.url)
        request = PlanRequest(platform=platform, N=42.0, strategy="het")
        client.plan(request)
        client.plan(request)
        stats = client.cache_stats()
        assert stats["cache"] == "on"
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1
        assert len(stats["workers"]) == 3


class TestAdmissionAndErrors:
    def test_admission_limit_zero_rejects_with_429(self, workers, platform):
        coord = ClusterCoordinator(
            port=0,
            workers=[w.url for w in workers],
            max_inflight=0,
            retry_after=0.25,
            heartbeat_interval=5.0,
        )
        with coord:
            client = ServiceClient(coord.url, retries=0)
            request = PlanRequest(
                platform=platform, N=10.0, strategy="het"
            )
            with pytest.raises(PlanServiceError) as err:
                client.plan(request)
            assert err.value.code == 429
            assert "over capacity" in str(err.value)

    def test_429_carries_retry_after_header(self, workers):
        coord = ClusterCoordinator(
            port=0,
            workers=[w.url for w in workers],
            max_inflight=0,
            retry_after=0.25,
            heartbeat_interval=5.0,
        )
        with coord:
            from repro.service import wire

            body = wire.pack_v2([])
            request = urllib.request.Request(
                f"{coord.url}/plan_batch", data=body
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=5)
            assert err.value.code == 429
            assert err.value.headers.get("Retry-After") == "0.25"

    def test_worker_protocol_error_relayed_not_retried(
        self, coordinator, platform
    ):
        client = ServiceClient(coordinator.url, retries=0)
        request = PlanRequest(
            platform=platform, N=10.0, strategy="no-such-strategy"
        )
        with pytest.raises(PlanServiceError) as err:
            client.plan(request)
        assert err.value.code == 400
        assert "no-such-strategy" in str(err.value)
        # nothing was marked dead: the worker answered
        assert len(coordinator.pool.alive()) == 3

    def test_malformed_batch_is_400(self, coordinator):
        client = ServiceClient(coordinator.url, retries=0)
        with pytest.raises(PlanServiceError) as err:
            client.post("/plan_batch", "not a list")
        assert err.value.code == 400


class TestMetricsAggregation:
    def test_metrics_payload_merges_workers(
        self, coordinator, workers, platform
    ):
        client = ServiceClient(coordinator.url)
        for n in (1.0, 2.0, 3.0, 4.0):
            client.plan(PlanRequest(platform=platform, N=n, strategy="het"))
        payload = client.get_json("/metrics")
        assert payload["role"] == "coordinator"
        assert payload["coordinator"]["endpoints"]["/plan"]["count"] == 4
        cluster_batches = payload["cluster"]["endpoints"]["/plan_batch"]
        assert cluster_batches["count"] == 4
        assert cluster_batches["errors"] == 0
        assert len(payload["workers"]) == 3


class TestStaticMembership:
    """No route changes the pool: the constructor's workers are all."""

    @pytest.mark.parametrize(
        "path", ["/workers/register", "/workers/heartbeat"]
    )
    def test_push_routes_are_404_counted_as_other(self, coordinator, path):
        # nothing listens on port 1: registering it would hand planning
        # shards to a URL that can never answer
        body = json.dumps({"url": "http://127.0.0.1:1"}).encode()
        request = urllib.request.Request(
            f"{coordinator.url}{path}",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=5)
        assert err.value.code == 404
        assert coordinator.pool.snapshot()["total"] == 3
        endpoints = coordinator.metrics.payload()["endpoints"]
        assert endpoints["other"]["count"] == 1
        assert path not in endpoints


class TestNoContentKeying:
    def test_plan_batch_never_computes_a_cache_key(
        self, platform, monkeypatch
    ):
        # least-loaded dispatch reads loads, not content: with cacheless
        # workers nothing on the path may key a request
        import repro.core.cache

        def refuse(*args, **kwargs):
            raise AssertionError("plan_cache_key called on the dispatch path")

        monkeypatch.setattr(repro.core.cache, "plan_cache_key", refuse)
        servers = [PlanServer(port=0, cache=False).start() for _ in range(2)]
        try:
            coord = ClusterCoordinator(
                port=0,
                workers=[w.url for w in servers],
                heartbeat_interval=5.0,
            )
            with coord:
                requests = _requests(platform, 6)
                actual = ServiceClient(coord.url, retries=0).plan_items(
                    requests
                )
        finally:
            for server in servers:
                server.close()
        with PlannerSession(cache=False) as local:
            expected = local.plan_batch(requests)
        assert_same_results(actual, expected)


class TestValidation:
    def test_negative_reroutes(self):
        with pytest.raises(ValueError):
            ClusterCoordinator(max_reroutes=-1)

    def test_no_workers_at_all(self, platform):
        with ClusterCoordinator(port=0, heartbeat_interval=5.0) as coord:
            with pytest.raises(NoWorkersError):
                coord.plan_items(
                    [PlanRequest(platform=platform, N=1.0, strategy="het")]
                )
