"""The service speaks one wire format, binary-v2, and nothing else.

The acceptance contract:

* ``/healthz`` advertises ``["binary-v2"]`` and wire version 2, so a
  client that still negotiates picks it;
* a client needs no handshake: it packs binary-v2 from the first call
  and refuses to be built for any other profile;
* remote planning over binary-v2 is bit-identical to local planning;
* raw hostile bodies (a pickle, truncated v2 frames, garbage) get a
  400 with the wire layer's message, never a hung or crashed server.
"""

import pickle
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.pipeline import PlanRequest
from repro.core.session import PlannerSession
from repro.platform.star import StarPlatform
from repro.service import wire
from repro.service.client import ServiceClient
from repro.service.server import PlanServer


@pytest.fixture()
def server():
    with PlanServer(port=0, cache="memory") as srv:
        yield srv


@pytest.fixture()
def platform():
    return StarPlatform.from_speeds([1.0, 2.0, 4.0, 8.0])


def assert_results_identical(a, b):
    """Two PlanResults describe exactly the same plan (bit-identical)."""
    assert a.request == b.request
    assert a.plan.strategy == b.plan.strategy
    assert a.plan.N == b.plan.N
    assert a.plan.comm_volume == b.plan.comm_volume
    assert a.plan.imbalance == b.plan.imbalance
    np.testing.assert_array_equal(a.plan.speeds, b.plan.speeds)
    np.testing.assert_array_equal(a.plan.finish_times, b.plan.finish_times)
    assert sorted(a.plan.detail) == sorted(b.plan.detail)


def raw_post(url, body, headers=None):
    request = urllib.request.Request(url, data=body, headers=headers or {})
    with urllib.request.urlopen(request, timeout=10.0) as resp:
        return resp.status, dict(resp.headers), resp.read()


class TestHandshake:
    def test_healthz_advertises_profiles(self, server):
        health = ServiceClient(server.url).healthz()
        assert health["wire_version"] == wire.WIRE_VERSION == 2
        assert "wire_profiles" in health
        assert "wire_mode" not in health

    def test_safe_server_advertises_binary_only(self, server):
        health = ServiceClient(server.url).healthz()
        assert health["wire_profiles"] == [wire.PROFILE_BINARY]

    def test_auto_client_negotiates_binary(self):
        # nothing listens on port 9: the answer needs no I/O
        client = ServiceClient("127.0.0.1:9", retries=0)
        assert client.wire_profile() == wire.PROFILE_BINARY

    @pytest.mark.parametrize("profile", [wire.PROFILE_BINARY])
    def test_explicit_profile_honoured(self, server, profile):
        client = ServiceClient(server.url, wire_profile=profile)
        assert client.wire_profile() == profile

    def test_unknown_profile_rejected_at_construction(self, server):
        for profile in ("msgpack-v9", "auto"):
            with pytest.raises(ValueError, match="unknown wire profile"):
                ServiceClient(server.url, wire_profile=profile)

    def test_pickle_client_vs_safe_server_fails_clearly(self, server):
        with pytest.raises(ValueError, match="the only one is 'binary-v2'"):
            ServiceClient(server.url, wire_profile="pickle-v1")

    def test_auto_client_vs_safe_server_works(self, server, platform):
        client = ServiceClient(server.url)
        result = client.plan(
            PlanRequest(platform=platform, N=100.0, strategy="hom")
        )
        assert result.plan.strategy == "hom"
        # no handshake: the first planning call was the first request
        assert "/healthz" not in server.metrics.payload()["endpoints"]


class TestCrossProfileEquivalence:
    @pytest.mark.parametrize("profile", [wire.PROFILE_BINARY])
    def test_remote_backend_matches_local(self, server, platform, profile):
        requests = [
            PlanRequest(platform=platform, N=float(n), strategy=s)
            for n in (400, 800)
            for s in ("hom", "het")
        ]
        with PlannerSession(cache=False) as local:
            expected = local.plan_batch(requests)
        with ServiceClient(server.url) as client:
            assert client.wire_profile() == profile
            got = client.plan_items(requests)
        for e, g in zip(expected, got):
            assert_results_identical(e, g)


class TestRawBodies:
    """Hostile / mismatched bodies straight at the endpoints."""

    def _plan_body(self, platform):
        request = PlanRequest(platform=platform, N=100.0, strategy="hom")
        return wire.pack_v2(request)

    def test_profile_inferred_from_body_magic(self, server, platform):
        # no header names the format: the body's magic line is all
        # the server reads, and it answers in binary-v2
        body = self._plan_body(platform)
        status, headers, data = raw_post(f"{server.url}/plan", body)
        assert status == 200
        result = wire.unpack_v2(data)
        assert result.plan.strategy == "hom"

    def test_response_profile_matches_request(self, server, platform):
        _, headers, data = raw_post(
            f"{server.url}/plan", self._plan_body(platform)
        )
        assert headers["Content-Type"] == wire.CONTENT_TYPE
        assert data.startswith(wire.WIRE_MAGIC)
        # the profile headers the negotiating releases sent are gone
        assert not any(name.startswith("X-Repro-Wire") for name in headers)

    def test_safe_server_400s_pickle_body(self, server, platform):
        request = PlanRequest(platform=platform, N=100.0, strategy="hom")
        body = b"repro-plan-wire:v1\n" + pickle.dumps(
            {"format": wire.WIRE_FORMAT, "version": 1, "payload": request}
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            raw_post(f"{server.url}/plan", body)
        assert err.value.code == 400
        message = err.value.read().decode()
        assert "not a repro plan-service envelope" in message

    def test_truncated_v2_body_is_400(self, server, platform):
        body = self._plan_body(platform)
        for cut in (len(wire.WIRE_MAGIC) + 3, len(body) - 5):
            with pytest.raises(urllib.error.HTTPError) as err:
                raw_post(f"{server.url}/plan", body[:cut])
            assert err.value.code == 400

    def test_garbage_body_is_400_and_server_survives(self, server, platform):
        with pytest.raises(urllib.error.HTTPError) as err:
            raw_post(f"{server.url}/plan", b"\x80\x04not an envelope")
        assert err.value.code == 400
        # the server is still healthy afterwards
        client = ServiceClient(server.url)
        assert client.healthz()["status"] == "ok"
