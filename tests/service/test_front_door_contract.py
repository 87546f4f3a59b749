"""The HTTP contract every front door keeps: plan server and coordinator.

One module, parametrised over a :class:`PlanServer` and a
:class:`ClusterCoordinator` in front of in-process ``PlanServer``
workers, pins what a client sees whichever of the two answers it:

* ``wire_mode="safe"`` refuses a pickle-v1 envelope with a 400 before
  anything is unpickled;
* unknown GET and POST paths are 404s counted under ``other``;
* ``/metrics`` speaks JSON and Prometheus and 400s any other format;
* an admission limit of zero answers 429 with ``Retry-After``;
* every response advertises the accepted wire profiles;
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

from repro.cluster.coordinator import ClusterCoordinator
from repro.core.pipeline import PlanRequest
from repro.loadtest.report import frontdoor_metrics
from repro.platform.star import StarPlatform
from repro.service import wire
from repro.service.client import PlanServiceUnavailable, ServiceClient
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
    @pytest.mark.parametrize("route", ["/plan", "/plan_batch", "/cache/get"])
    @pytest.mark.parametrize("announce", [True, False])
    def test_pickle_envelope_is_400_and_never_unpickled(
        self, make_front, tmp_path, route, announce
    ):
        front = make_front(wire_mode="safe")
        marker = tmp_path / "unpickled"
        body = wire.WIRE_MAGIC + pickle.dumps(_Marker(str(marker)))
        headers = {wire.PROFILE_HEADER: wire.PROFILE_PICKLE} if announce else {}
        status, _, data = call(f"{front.url}{route}", body, headers)
        assert status == 400
        assert "refused" in json.loads(data)["error"]
        assert not marker.exists()

    def test_safe_front_still_plans_binary(self, make_front):
        front = make_front(wire_mode="safe")
        body = wire.pack_v2(_plan_request())
        status, _, data = call(
            f"{front.url}/plan", body, {wire.PROFILE_HEADER: wire.PROFILE_BINARY}
        )
        assert status == 200
        assert wire.unpack_v2(data).plan.strategy == "hom"


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
        status, _, _ = call(
            f"{front.url}/no/such/thing",
            b"",
            {wire.PROFILE_HEADER: wire.PROFILE_BINARY},
        )
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
            f"{front.url}{route}",
            wire.pack_v2(payload),
            {wire.PROFILE_HEADER: wire.PROFILE_BINARY},
        )
        assert status == 429
        assert headers["Retry-After"] == "0.25"
        body = json.loads(data)
        assert body["retry_after"] == 0.25
        assert "over capacity" in body["error"]
        assert own_endpoints(front)[route]["errors"] == 1


class TestHeaders:
    def test_every_response_carries_the_profile_header(self, make_front):
        front = make_front(max_inflight=0)
        v2 = {wire.PROFILE_HEADER: wire.PROFILE_BINARY}
        responses = [
            call(f"{front.url}/healthz"),  # 200 JSON
            call(f"{front.url}/metrics?format=prometheus"),  # 200 text
            call(f"{front.url}/nope"),  # 404
            call(f"{front.url}/metrics?format=xml"),  # 400
            call(f"{front.url}/cache/get", b"junk", v2),  # 400 bad envelope
            call(f"{front.url}/plan", wire.pack_v2(_plan_request()), v2),  # 429
        ]
        assert [status for status, _, _ in responses] == [
            200, 200, 404, 400, 400, 429
        ]
        for _, headers, _ in responses:
            assert headers[wire.PROFILE_HEADER] == ",".join(wire.PROFILES)
            assert headers[wire.VERSION_HEADER] == str(wire.WIRE_VERSION)


class TestObserveBeforeWrite:
    def test_answered_request_is_already_counted(self, make_front):
        front = make_front()
        body = wire.pack_v2(_plan_request())
        v2 = {wire.PROFILE_HEADER: wire.PROFILE_BINARY}
        for expected in range(1, 21):
            assert call(f"{front.url}/plan", body, v2)[0] == 200
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
