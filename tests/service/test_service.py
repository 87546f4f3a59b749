"""End-to-end tests for the plan service: server and remote sessions.

The acceptance contract this file enforces:

* a remote session (``backend="remote:HOST:PORT"``) reproduces local
  planning bit-identically (``rtol = 1e-12``), sweep by sweep and for a
  Figure-4 panel;
* the server's store is a shared warm cache: a second client *process*
  planning through the server is served from what the first one
  planned, and no cache kind writes the store over the network;
* failure semantics are clean: server down / hanging / flaky surfaces
  as :class:`PlanServiceError` after bounded retries, protocol errors
  (bad envelopes, unknown strategies) report the server's message and
  never retry.
"""

import json
import os
import socket
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro import registry
from repro.core.cache import cache_from_spec
from repro.core.pipeline import PlanRequest, PlanResult, plan_request
from repro.core.session import PlannerSession
from repro.core.vectorize import VectorGroup, plan_batch_requests
from repro.experiments.figure4 import run_figure4
from repro.platform.star import StarPlatform
from repro.service.client import PlanServiceError, ServiceClient
from repro.service.server import PlanServer

#: src directory, so client subprocesses import this checkout
SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture()
def server():
    with PlanServer(port=0, cache="memory") as srv:
        yield srv


@pytest.fixture()
def platform():
    return StarPlatform.from_speeds([1.0, 2.0, 4.0, 8.0])


class TestRegistration:
    def test_no_network_cache_registered(self):
        # a plan server's store is shared through remote:, never written
        # over the network
        with pytest.raises(
            registry.RegistryError,
            match=r"unknown cache 'http'; expected one of "
            r"\('memory', 'sqlite', 'tiered'\)",
        ):
            cache_from_spec("http://127.0.0.1:1")


class TestHealthAndStats:
    def test_healthz(self, server):
        health = ServiceClient(f"{server.host}:{server.port}").healthz()
        assert health["status"] == "ok"
        assert health["wire_version"] == 2
        assert health["cache"] == "memory"
        # a server always plans in its own process: no backend field
        assert "backend" not in health

    def test_cache_stats_endpoint_is_plain_json(self, server):
        with urllib.request.urlopen(f"{server.url}/cache/stats") as resp:
            payload = json.loads(resp.read())
        assert payload["cache"] == "on"
        assert payload["lookups"] == payload["hits"] + payload["misses"]

    def test_unknown_endpoint_404(self, server):
        client = ServiceClient(server.url)
        with pytest.raises(PlanServiceError, match="404"):
            client.get_json("/nope")

    def test_cache_endpoints_refused_when_cache_off(self):
        with PlanServer(port=0, cache=False) as uncached, ServiceClient(
            uncached.url
        ) as client:
            with pytest.raises(PlanServiceError, match="without a cache") as e:
                client.cache_get(("any", "key"))
            assert e.value.code == 400
            assert client.cache_stats() == {"cache": "off"}


class TestRemoteBackend:
    def test_sweep_bit_identical_to_local(self, server, platform):
        with PlannerSession() as local, PlannerSession(
            backend=f"remote:{server.host}:{server.port}", cache=False
        ) as remote:
            a = local.sweep(platform, 10_000.0)
            b = remote.sweep(platform, 10_000.0)
        assert list(a.results) == list(b.results)
        for name in a.results:
            assert np.isclose(
                a.results[name].comm_volume,
                b.results[name].comm_volume,
                rtol=1e-12,
            ), name
            assert np.isclose(
                a.results[name].imbalance,
                b.results[name].imbalance,
                rtol=1e-12,
                atol=1e-15,
            ), name

    def test_plan_batch_matches_plan_request(self, server, platform):
        requests = [
            PlanRequest(platform=platform, N=float(n), strategy=s)
            for n in (500, 1000, 2000)
            for s in ("hom", "het", "hom/k")
        ]
        expected = [plan_request(req) for req in requests]
        with PlannerSession(
            backend=f"remote:{server.host}:{server.port}", cache=False
        ) as remote:
            got = remote.plan_batch(requests)
        assert len(got) == len(expected)
        for e, g in zip(expected, got):
            assert g.request == e.request
            assert np.isclose(e.comm_volume, g.comm_volume, rtol=1e-12)

    def test_figure4_panel_matches_local(self, server):
        protocol = dict(processors=(4,), trials=3, seed=7, N=500.0)
        local = run_figure4("uniform", **protocol)
        remote = run_figure4(
            "uniform",
            backend=f"remote:{server.host}:{server.port}",
            cache=False,
            **protocol,
        )
        for name in local.means:
            assert np.allclose(
                local.means[name], remote.means[name], rtol=1e-12
            ), name

    def test_server_cache_warms_across_remote_sessions(self, server, platform):
        spec = f"remote:{server.host}:{server.port}"
        with PlannerSession(backend=spec, cache=False) as first:
            first.sweep(platform, 4242.0)
        before = server.session.cache_stats()
        with PlannerSession(backend=spec, cache=False) as second:
            sweep = second.sweep(platform, 4242.0)
        after = server.session.cache_stats()
        assert after.hits - before.hits >= 3
        assert all(res.cached for res in sweep.results.values())

    def test_empty_map_is_local_noop(self):
        # no server needed: an empty batch never touches the network
        with ServiceClient("127.0.0.1:1", retries=0) as client:
            assert plan_batch_requests([], client) == []
        with PlannerSession(backend="remote:127.0.0.1:1") as session:
            assert session.plan_batch([]) == []

    def test_server_plans_wire_batch_in_one_session_call(
        self, server, platform
    ):
        """A mixed /plan_batch item list must reach the server session
        as ONE plan_batch call, so the server backend fans it out."""
        calls = []
        original = server.session.plan_batch

        def counting(requests, **kwargs):
            calls.append(len(requests))
            return original(requests, **kwargs)

        server.session.plan_batch = counting
        try:
            scalars = [
                PlanRequest(platform=platform, N=float(n), strategy="het")
                for n in (100, 200)
            ]
            group = VectorGroup(
                strategy="hom",
                requests=tuple(
                    PlanRequest(platform=platform, N=float(n), strategy="hom")
                    for n in (100, 200, 300)
                ),
            )
            outputs = server.plan_items([scalars[0], group, scalars[1]])
        finally:
            server.session.plan_batch = original
        assert calls == [5]
        assert isinstance(outputs[0], PlanResult)
        assert [r.request.N for r in outputs[1]] == [100.0, 200.0, 300.0]
        assert outputs[2].request.N == 200.0

    def test_unknown_strategy_relays_server_message(self, server, platform):
        with PlannerSession(
            backend=f"remote:{server.host}:{server.port}", cache=False
        ) as remote:
            with pytest.raises(ValueError, match="unknown strategy"):
                remote.plan(
                    PlanRequest(platform=platform, N=100.0, strategy="nope")
                )


class TestSharedCacheAcrossProcesses:
    def test_two_client_processes_share_the_store(self, server):
        """The acceptance scenario: sequential client *processes*
        planning through one server, the second served entirely from
        the store the first one warmed."""
        snippet = (
            "from repro.core.session import PlannerSession\n"
            "from repro.platform.star import StarPlatform\n"
            "p = StarPlatform.from_speeds([1, 2, 4, 8])\n"
            "s = PlannerSession(\n"
            f"    backend='remote:{server.host}:{server.port}', cache=False\n"
            ")\n"
            "sweep = s.sweep(p, 31337.0)\n"
            "cached = sum(r.cached for r in sweep.results.values())\n"
            "print(cached, len(sweep.results))\n"
            "s.close()\n"
        )

        def server_counts():
            stats = json.loads(
                urllib.request.urlopen(f"{server.url}/cache/stats").read()
            )
            return stats["hits"], stats["misses"]

        def run_client():
            return subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True,
                text=True,
                env={
                    **os.environ,
                    "PYTHONPATH": SRC_DIR
                    + os.pathsep
                    + os.environ.get("PYTHONPATH", ""),
                },
                check=True,
            ).stdout.split()

        assert server_counts() == (0, 0)
        cached1, total1 = map(int, run_client())
        assert (cached1, total1) == (0, 3)
        assert server_counts() == (0, 3)
        cached2, total2 = map(int, run_client())
        assert (cached2, total2) == (3, 3)
        assert server_counts() == (3, 3)
        assert len(server.store()) == 3


class TestFailureSemantics:
    def test_server_down_raises_after_retries(self):
        # grab a port nothing listens on
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServiceClient(
            f"127.0.0.1:{port}", timeout=0.5, retries=1, retry_wait=0.01
        )
        with pytest.raises(PlanServiceError, match="after 2 attempt"):
            client.healthz()

    def test_retry_counts_attempts(self):
        """Every attempt reaches the listener; retries are bounded."""
        accepted = []
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        port = listener.getsockname()[1]
        stop = threading.Event()

        def slam_connections():
            listener.settimeout(0.2)
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                accepted.append(1)
                conn.close()  # reset before any HTTP response

        thread = threading.Thread(target=slam_connections, daemon=True)
        thread.start()
        try:
            client = ServiceClient(
                f"127.0.0.1:{port}", timeout=1.0, retries=2, retry_wait=0.01
            )
            with pytest.raises(PlanServiceError, match="after 3 attempt"):
                client.healthz()
        finally:
            stop.set()
            thread.join()
            listener.close()
        assert len(accepted) == 3

    def test_retry_recovers_from_transient_failure(self):
        """First connection dies, second gets a real response."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        port = listener.getsockname()[1]
        body = b'{"status": "ok"}'
        response = (
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n".encode()
            + b"Connection: close\r\n\r\n"
            + body
        )

        def flaky():
            first, _ = listener.accept()
            first.close()                      # transport failure
            second, _ = listener.accept()
            second.recv(4096)
            second.sendall(response)           # healthy on retry
            second.close()

        thread = threading.Thread(target=flaky, daemon=True)
        thread.start()
        try:
            client = ServiceClient(
                f"127.0.0.1:{port}", timeout=2.0, retries=2, retry_wait=0.01
            )
            assert client.healthz() == {"status": "ok"}
        finally:
            thread.join(timeout=5)
            listener.close()

    def test_garbage_post_is_rejected_cleanly(self, server):
        request = urllib.request.Request(
            f"{server.url}/plan", data=b"not an envelope"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        assert "envelope" in json.loads(excinfo.value.read())["error"]

    def test_protocol_errors_never_retry(self, server):
        """A 4xx reply is terminal: exactly one request hits the wire."""
        before = json.loads(
            urllib.request.urlopen(f"{server.url}/cache/stats").read()
        )
        client = ServiceClient(server.url, retries=5, retry_wait=0.01)
        with pytest.raises(PlanServiceError, match="HTTP 400"):
            client.post("/plan", "not a PlanRequest")
        after = json.loads(
            urllib.request.urlopen(f"{server.url}/cache/stats").read()
        )
        # no planning happened, so cache counters are untouched
        assert after["lookups"] == before["lookups"]
