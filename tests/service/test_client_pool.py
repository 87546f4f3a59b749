"""ServiceClient connection reuse against a real PlanServer.

The client keeps HTTP/1.1 connections alive in a per-process pool and
the front door serves them without a Nagle stall.  The server's own
``connections`` counters (read in-process, so reading them opens no
connection) show what reached it:

* sequential calls share one accepted connection;
* sequential calls are fast (a Nagle stall would cost ~40 ms each);
* after the server restarts on the same port, stale pooled connections
  cost a ``retries=1`` client one attempt, not one per socket;
* a forked child never reuses its parent's sockets.
"""

import os
import threading
import time

import pytest

from repro.core.pipeline import PlanRequest
from repro.platform.star import StarPlatform
from repro.service.client import ServiceClient
from repro.service.server import PlanServer


def _connections(server):
    return server.metrics.payload()["connections"]


def _request(n=100.0):
    return PlanRequest(
        platform=StarPlatform.from_speeds([1.0, 2.0, 4.0]),
        N=n,
        strategy="het",
    )


@pytest.fixture()
def server():
    with PlanServer(port=0, cache="memory") as srv:
        yield srv


class _BarrierHealth(PlanServer):
    """Answers /healthz only once three are in flight at once."""

    def __init__(self, **kwargs):
        self.barrier = threading.Barrier(3, timeout=10)
        super().__init__(**kwargs)

    def health_payload(self):
        self.barrier.wait()
        return super().health_payload()


class TestReuse:
    def test_sequential_calls_share_one_connection(self, server):
        with ServiceClient(server.url) as client:
            for i in range(50):
                assert client.plan(_request(100.0 + i)).plan is not None
            assert _connections(server)["accepted"] == 1
            assert server.metrics.payload()["endpoints"]["/plan"]["count"] == 50

    def test_sequential_healthz_has_no_nagle_stall(self, server):
        with ServiceClient(server.url) as client:
            client.healthz()
            started = time.perf_counter()
            for _ in range(200):
                client.healthz()
            assert time.perf_counter() - started < 2.0
        assert _connections(server)["accepted"] == 1

    def test_close_releases_the_pool(self, server):
        client = ServiceClient(server.url)
        client.healthz()
        assert _connections(server)["open"] == 1
        client.close()
        deadline = time.monotonic() + 5
        while _connections(server)["open"] and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _connections(server)["open"] == 0
        client.healthz()  # still usable: a new connection
        assert _connections(server)["accepted"] == 2
        client.close()


class TestStalePool:
    def test_restart_on_same_port_costs_one_attempt(self):
        first = _BarrierHealth(port=0, cache="memory").start()
        port = first.port
        client = ServiceClient(first.url, retries=1, retry_wait=0.01)
        try:
            callers = [
                threading.Thread(target=client.healthz) for _ in range(3)
            ]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in callers)
            # three calls in flight at once: three pooled connections
            assert _connections(first) == {"accepted": 3, "open": 3}
        finally:
            first.close()
        with PlanServer(port=port, cache="memory") as second:
            assert client.healthz()["status"] == "ok"
            # the failed attempt dropped every stale socket at once
            assert _connections(second)["accepted"] == 1
        client.close()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestFork:
    def test_child_opens_its_own_connection(self, server):
        client = ServiceClient(server.url)
        client.healthz()
        assert _connections(server)["accepted"] == 1
        pid = os.fork()
        if pid == 0:  # the child: report through the exit status only
            code = 1
            try:
                code = 0 if client.healthz()["status"] == "ok" else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert _connections(server)["accepted"] == 2
        # the parent's pooled connection is untouched by the child
        assert client.healthz()["status"] == "ok"
        assert _connections(server)["accepted"] == 2
        client.close()
