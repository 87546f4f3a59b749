"""ClusterCoordinator against in-process workers: the acceptance contract.

* the coordinator is a drop-in plan server: remote sessions pointed at
  it reproduce local planning bit-identically (rtol=1e-12), scalar and
  vectorised;
* killing a worker mid-pool transparently reroutes to survivors with
  identical results;
* membership is the workers it was built with: no route adds one;
* admission control answers 429 + Retry-After; no workers answers 503;
* worker protocol errors are relayed, not retried; a worker reply
  that is not an envelope is a 502;
* worker replies reach the client byte for byte, never re-encoded;
* /cache/get finds an entry on whichever alive worker holds it;
* /metrics aggregates workers into one cluster histogram.
"""

import http.server
import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cluster.coordinator import ClusterCoordinator, NoWorkersError
from repro.cluster.lifecycle import LocalCluster
from repro.cluster.pool import WorkerPool
from repro.core.pipeline import PlanRequest, plan_request
from repro.core.session import PlannerSession
from repro.core.vectorize import VectorGroup
from repro.platform.star import StarPlatform
from repro.service import wire
from repro.service.client import PlanServiceError, ServiceClient
from repro.service.metrics import AdmissionGate
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
        with PlannerSession(backend=f"remote:{address}", cache=False) as remote:
            actual = remote.plan_batch(requests)
        with PlannerSession(cache=False) as local:
            expected = local.plan_batch(requests)
        assert_same_results(actual, expected)

    def test_vectorized_sweep_shards_and_matches(
        self, coordinator, workers, platform
    ):
        # a client session fuses the sweep into one VectorGroup;
        # the coordinator must shard it across workers (scale-out!)
        # and reassemble bit-identically
        requests = _requests(platform, 12)
        address = f"{coordinator.host}:{coordinator.port}"
        with PlannerSession(backend=f"remote:{address}", cache=False) as remote:
            actual = remote.plan_batch(requests)
        expected = [plan_request(req) for req in requests]
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


def _post(url, payload):
    """POST an envelope from outside any ServiceClient; the raw reply."""
    request = urllib.request.Request(url, data=wire.pack_v2(payload))
    with urllib.request.urlopen(request, timeout=30) as reply:
        return reply.read()


class TestRelay:
    """Worker replies travel back undecoded inside the answer."""

    def test_sharded_reply_holds_each_worker_reply_verbatim(
        self, coordinator, workers, platform, monkeypatch
    ):
        replies = []
        worker_urls = {w.url for w in workers}
        send = ServiceClient._request

        def recording(self, path, *args, **kwargs):
            body = send(self, path, *args, **kwargs)
            if self.base_url in worker_urls and path == "/plan_batch":
                replies.append(body)
            return body

        monkeypatch.setattr(ServiceClient, "_request", recording)
        requests = _requests(platform, 6)
        group = VectorGroup(strategy="het", requests=tuple(requests))
        answer = _post(f"{coordinator.url}/plan_batch", [group])
        assert len(replies) == 3  # one 2-request shard per worker
        for reply in replies:
            assert answer.count(reply) == 1
        assert wire.read_header(answer)[0]["payload"] == [
            "l", ["cat", ["sub", 0, 0], ["sub", 1, 0], ["sub", 2, 0]]
        ]
        (actual,) = wire.unpack_v2(answer, relayed=True)
        with PlannerSession(cache=False) as local:
            assert_same_results(actual, local.plan_batch(requests))

    def test_plan_reply_is_one_relayed_result(self, coordinator, platform):
        request = PlanRequest(platform=platform, N=4321.0, strategy="hom")
        answer = _post(f"{coordinator.url}/plan", request)
        assert wire.read_header(answer)[0]["payload"] == ["sub", 0, 0]
        with PlannerSession(cache=False) as local:
            expected = local.plan(request)
        assert_same_results(
            [wire.unpack_v2(answer, relayed=True)], [expected]
        )


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
    def test_get_finds_an_entry_on_a_busy_worker(
        self, coordinator, workers, platform
    ):
        # the holder is asked last, and while busy it is the worker
        # least-loaded dispatch would never pick
        holder = max(workers, key=lambda w: w.url)
        with ServiceClient(coordinator.url) as client:
            result = client.plan(
                PlanRequest(platform=platform, N=77.0, strategy="het")
            )
            holder.store().put(("held", 1), result)
            coordinator.pool.acquire(holder.url, 1)
            try:
                fetched = client.cache_get(("held", 1))
            finally:
                coordinator.pool.release(holder.url, 1)
            assert fetched is not None
            assert_same_results([fetched], [result])
            assert client.cache_get(("never", "stored")) is None

    def test_each_get_probe_counts_on_the_worker_it_reaches(
        self, coordinator, workers, platform
    ):
        # worker stores count every lookup they serve, the coordinator's
        # probes included: a hit on the last of three workers is two
        # misses and a hit, a cluster-wide miss one miss per worker
        ordered = sorted(workers, key=lambda w: w.url)
        with ServiceClient(ordered[-1].url) as direct:
            result = direct.plan(
                PlanRequest(platform=platform, N=79.0, strategy="het")
            )
        ordered[-1].store().put(("held", 3), result)
        with ServiceClient(coordinator.url) as client:
            before = client.cache_stats()
            assert client.cache_get(("held", 3)) is not None
            assert client.cache_get(("never", "stored")) is None
            after = client.cache_stats()

        def grew(field):
            return [
                after["workers"][w.url][field]
                - before["workers"][w.url][field]
                for w in ordered
            ]

        assert grew("hits") == [0, 0, 1]
        assert grew("misses") == [2, 2, 1]
        assert after["hits"] - before["hits"] == 1
        assert after["misses"] - before["misses"] == 5

    def test_get_skips_an_unreachable_worker(
        self, coordinator, workers, platform
    ):
        first, *_, holder = sorted(workers, key=lambda w: w.url)
        with ServiceClient(coordinator.url) as client:
            result = client.plan(
                PlanRequest(platform=platform, N=78.0, strategy="het")
            )
            holder.store().put(("held", 2), result)
            first.close()
            fetched = client.cache_get(("held", 2))
        assert fetched is not None
        assert_same_results([fetched], [result])
        dead = [
            w["url"]
            for w in coordinator.pool.snapshot()["workers"]
            if not w["alive"]
        ]
        assert dead == [first.url]

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
            assert err.value.headers.get("Retry-After") == "0.5"

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

    def test_worker_reply_that_is_no_envelope_is_502(self, platform):
        # an alive worker answering garbage is the worker's fault, not
        # the client's: never a 400
        stub = http.server.ThreadingHTTPServer(
            ("127.0.0.1", 0), _NotAnEnvelope
        )
        thread = threading.Thread(target=stub.serve_forever, daemon=True)
        thread.start()
        try:
            coord = ClusterCoordinator(
                port=0,
                workers=[f"http://127.0.0.1:{stub.server_address[1]}"],
                heartbeat_interval=5.0,
            )
            client = ServiceClient(coord.url, retries=0)
            with coord, client, pytest.raises(PlanServiceError) as err:
                client.plan(
                    PlanRequest(platform=platform, N=10.0, strategy="het")
                )
        finally:
            stub.shutdown()
            stub.server_close()
            thread.join(timeout=5)
        assert err.value.code == 502
        assert "worker error" in str(err.value)

    def test_malformed_batch_is_400(self, coordinator):
        client = ServiceClient(coordinator.url, retries=0)
        with pytest.raises(PlanServiceError) as err:
            client.post("/plan_batch", "not a list")
        assert err.value.code == 400


class _NotAnEnvelope(http.server.BaseHTTPRequestHandler):
    """A worker that is alive but answers every POST with HTML."""

    def do_GET(self):  # noqa: N802 (http.server API)
        self._send(b'{"status": "ok"}')

    def do_POST(self):  # noqa: N802 (http.server API)
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        self._send(b"<html>internal proxy error</html>")

    def _send(self, body):
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


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
    @pytest.mark.parametrize(
        "owner, keyword",
        [
            ("PlanServer", "retry_after"),
            ("ClusterCoordinator", "retry_after"),
            ("ClusterCoordinator", "max_missed"),
            ("ClusterCoordinator", "max_reroutes"),
            ("ClusterCoordinator", "worker_timeout"),
            ("LocalCluster", "max_missed"),
            ("LocalCluster", "max_reroutes"),
            ("LocalCluster", "startup_timeout"),
            ("LocalCluster", "span_recorder"),
            ("WorkerPool", "max_missed"),
            ("AdmissionGate", "retry_after"),
        ],
    )
    def test_removed_settings_are_type_errors(self, owner, keyword):
        build = {
            "PlanServer": PlanServer,
            "ClusterCoordinator": ClusterCoordinator,
            "LocalCluster": LocalCluster,
            "WorkerPool": WorkerPool,
            "AdmissionGate": lambda **kw: AdmissionGate(None, **kw),
        }[owner]
        with pytest.raises(TypeError):
            build(**{keyword: 1})

    def test_no_workers_at_all(self, platform):
        with ClusterCoordinator(port=0, heartbeat_interval=5.0) as coord:
            with pytest.raises(NoWorkersError):
                coord.plan_items(
                    [PlanRequest(platform=platform, N=1.0, strategy="het")]
                )
