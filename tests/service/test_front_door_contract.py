"""The HTTP contract every front door keeps: plan server and coordinator.

One module, parametrised over a :class:`PlanServer` and a
:class:`ClusterCoordinator` in front of in-process ``PlanServer``
workers, pins what a client sees whichever of the two answers it:

* a pickle-v1 envelope on any envelope route is a 400 before anything
  is unpickled, and so is a request holding a relay node (only a
  coordinator's reply may);
* ``/cache/put`` stores nothing but a ``(key, PlanResult)`` pair, so no
  client can poison the plans every other client is served;
* unknown GET and POST paths are 404s counted under ``other``;
* ``/metrics`` speaks JSON and Prometheus and 400s any other format;
* an admission limit of zero answers 429 with ``Retry-After``;
* a request is visible in ``/metrics`` once its client holds the answer;
* after ``close()`` nothing is answered, not even on a kept-alive
  connection a client already holds;
* a request body the server cannot delimit ends the connection, so its
  bytes are never parsed as a next request.
"""

from __future__ import annotations

import json
import pickle
import re
import socket
import urllib.error
import urllib.request

import pytest

from repro import registry
from repro.cluster.coordinator import ClusterCoordinator
from repro.core.cache import plan_cache_key
from repro.core.pipeline import PlanRequest, PlanResult
from repro.loadtest.report import frontdoor_metrics
from repro.platform.star import StarPlatform
from repro.service import wire
from repro.service.client import (
    PlanServiceError,
    PlanServiceUnavailable,
    ServiceClient,
)
from repro.service.server import PlanServer

KINDS = ("server", "coordinator")


@pytest.fixture(params=KINDS)
def make_front(request):
    """Build (and later close) a started front door of the param's kind."""
    opened = []

    def make(**kwargs):
        if request.param == "server":
            front = PlanServer(port=0, cache="memory", **kwargs)
        else:
            worker = PlanServer(port=0, cache="memory").start()
            opened.append(worker)
            front = ClusterCoordinator(
                port=0, workers=[worker.url], heartbeat_interval=0.2, **kwargs
            )
        opened.append(front)
        return front.start()

    yield make
    for front in reversed(opened):
        front.close()


def call(url, body=None, headers=None):
    """One request; (status, headers, body) for success and HTTP errors."""
    req = urllib.request.Request(
        url,
        data=body,
        headers=headers or {},
        method="GET" if body is None else "POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, resp.headers, resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.headers, err.read()


def own_endpoints(front):
    """The front door's own per-endpoint counters, read over /metrics."""
    _, _, data = call(f"{front.url}/metrics")
    return frontdoor_metrics(json.loads(data))["endpoints"]


class _Marker:
    """Unpickling this creates the marker file (a stand-in for harm)."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


def _plan_request():
    return PlanRequest(
        platform=StarPlatform.from_speeds([1.0, 2.0]), N=100.0, strategy="hom"
    )


class TestSafeWire:
    @pytest.mark.parametrize(
        "route", ["/plan", "/plan_batch", "/cache/get", "/cache/put"]
    )
    def test_pickle_envelope_is_400_and_never_unpickled(
        self, make_front, tmp_path, route
    ):
        front = make_front()
        marker = tmp_path / "unpickled"
        body = b"repro-plan-wire:v1\n" + pickle.dumps(_Marker(str(marker)))
        status, _, data = call(f"{front.url}{route}", body)
        assert status == 400
        assert "not a repro plan-service envelope" in json.loads(data)["error"]
        assert not marker.exists()

    @pytest.mark.parametrize("route", ["/plan", "/plan_batch"])
    def test_relay_nodes_in_a_request_are_400(self, make_front, route):
        front = make_front()
        relayed = wire.Relayed(wire.pack_v2([_plan_request()]), 0)
        body = wire.pack_v2(relayed if route == "/plan" else [relayed])
        status, _, data = call(f"{front.url}{route}", body)
        assert status == 400
        assert "unknown binary-v2 node tag 'sub'" in json.loads(data)["error"]

    def test_safe_front_still_plans_binary(self, make_front):
        front = make_front()
        body = wire.pack_v2(_plan_request())
        status, _, data = call(f"{front.url}/plan", body)
        assert status == 200
        # decoded as a client decodes a reply: a coordinator relays it
        assert wire.unpack_v2(data, relayed=True).plan.strategy == "hom"


class TestCachePut:
    @pytest.mark.parametrize(
        "entry, error",
        [
            ("poison", "(key, PlanResult)"),
            (("k", "poison"), "(key, PlanResult)"),
            (("k",), "(key, PlanResult)"),
            (("k", "v", "w"), "(key, PlanResult)"),
            (
                ("k", PlanResult(request="x", plan="y", elapsed_s=0.0)),
                "must hold a PlanRequest and a StrategyResult",
            ),
        ],
        ids=["bare", "non-result", "short", "long", "hollow-result"],
    )
    def test_only_plan_results_are_stored(self, make_front, entry, error):
        front = make_front()
        status, _, data = call(f"{front.url}/cache/put", wire.pack_v2(entry))
        assert status == 400
        assert error in json.loads(data)["error"]

    def test_poisoned_put_leaves_plan_working(self, make_front):
        front = make_front()
        request = _plan_request()
        key = plan_cache_key(request, registry.get("strategy", "hom"))
        client = ServiceClient(front.url, retries=0)
        with pytest.raises(PlanServiceError) as err:
            client.cache_put(key, "poison")
        assert err.value.code == 400
        for _ in range(2):  # a miss that plans, then a hit
            assert isinstance(client.plan(request), PlanResult)
        client.close()


class TestUnknownPaths:
    def test_unknown_get_is_404_counted_as_other(self, make_front):
        front = make_front()
        status, _, data = call(f"{front.url}/no/such/thing")
        assert status == 404
        assert "no such endpoint" in json.loads(data)["error"]
        other = own_endpoints(front)["other"]
        assert other["count"] == 1
        assert other["errors"] == 1

    def test_unknown_post_is_404_counted_as_other(self, make_front):
        front = make_front()
        status, _, _ = call(f"{front.url}/no/such/thing", b"")
        assert status == 404
        assert own_endpoints(front)["other"]["count"] == 1

    def test_probes_share_one_other_bucket(self, make_front):
        front = make_front()
        for path in ("/a", "/b?x=1", "/c/d"):
            assert call(f"{front.url}{path}")[0] == 404
        endpoints = own_endpoints(front)
        assert endpoints["other"]["count"] == 3
        assert not {"/a", "/b", "/c/d"} & set(endpoints)


class TestMetricsFormats:
    def test_unknown_format_is_400(self, make_front):
        front = make_front()
        status, _, data = call(f"{front.url}/metrics?format=xml")
        assert status == 400
        assert "unknown metrics format" in json.loads(data)["error"]

    def test_prometheus_is_text_plain(self, make_front):
        front = make_front()
        call(f"{front.url}/healthz")
        status, headers, data = call(f"{front.url}/metrics?format=prometheus")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "repro_requests_total" in data.decode()

    def test_query_string_keeps_the_metrics_endpoint(self, make_front):
        front = make_front()
        call(f"{front.url}/metrics?format=json")
        assert own_endpoints(front)["/metrics"]["count"] >= 1


class TestAdmission:
    @pytest.mark.parametrize("route", ["/plan", "/plan_batch"])
    def test_zero_inflight_is_429_with_retry_after(self, make_front, route):
        front = make_front(max_inflight=0, retry_after=0.25)
        payload = _plan_request() if route == "/plan" else [_plan_request()]
        status, headers, data = call(
            f"{front.url}{route}", wire.pack_v2(payload)
        )
        assert status == 429
        assert headers["Retry-After"] == "0.25"
        body = json.loads(data)
        assert body["retry_after"] == 0.25
        assert "over capacity" in body["error"]
        assert own_endpoints(front)[route]["errors"] == 1


class TestObserveBeforeWrite:
    def test_answered_request_is_already_counted(self, make_front):
        front = make_front()
        body = wire.pack_v2(_plan_request())
        for expected in range(1, 21):
            assert call(f"{front.url}/plan", body)[0] == 200
            # read in-process the moment the answer is in hand: no later
            # request can have nudged the counter first
            counts = front.metrics.payload()["endpoints"]
            assert counts["/plan"]["count"] == expected


class TestClose:
    def test_idle_pooled_connection_is_not_answered(self, make_front):
        front = make_front()
        client = ServiceClient(front.url, retries=1, retry_wait=0.01)
        assert client.healthz()["status"] == "ok"  # now pooled, idle
        front.close()
        with pytest.raises(PlanServiceUnavailable):
            client.healthz()
        client.close()


#: a request hidden in a body; answering it would 404 naming its path
SMUGGLED = b"GET /smuggled HTTP/1.1\r\nHost: x\r\n\r\n"
VALID = b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"


class TestNoDesync:
    @pytest.mark.parametrize(
        "head, first_status",
        [
            (
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: %d\r\n\r\n" % len(SMUGGLED),
                b"200",
            ),
            (
                b"POST /cache/clear HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: -5\r\n\r\n",
                b"400",
            ),
            (
                b"POST /cache/clear HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 12abc\r\n\r\n",
                b"400",
            ),
            (
                b"POST /cache/clear HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n",
                b"400",
            ),
        ],
        ids=[
            "get-with-body", "negative-length", "unparsable-length",
            "transfer-encoding",
        ],
    )
    def test_leftover_body_is_never_a_request(
        self, make_front, head, first_status
    ):
        front = make_front()
        with socket.create_connection((front.host, front.port), 10) as sock:
            sock.sendall(head + SMUGGLED + VALID)
            data = b""
            while chunk := sock.recv(65536):
                data += chunk
        statuses = re.findall(rb"^HTTP/1\.1 (\d{3})", data, re.M)
        assert statuses[0] == first_status
        # the valid request is answered correctly or not at all
        assert statuses[1:] in ([], [b"200"])
        assert b"/smuggled" not in data
        assert "other" not in own_endpoints(front)
