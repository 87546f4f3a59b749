"""ServiceClient retry semantics against a scripted stub server.

Two retry families exist and must not blur together:

* transport errors (refused/reset/timeout) — linear backoff, exhausting
  the budget raises :class:`PlanServiceUnavailable`;
* ``429`` admission refusals — the server's ``Retry-After`` hint is
  honoured (clamped by ``retry_after_cap``) within the same bounded
  attempt budget, exhausting raises :class:`PlanServiceError` with
  ``code == 429``.

Everything else (400, 500, ...) surfaces immediately, no retry.
"""

import email.utils
import json
import math
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.service import wire
from repro.service.client import (
    PlanServiceError,
    PlanServiceUnavailable,
    ServiceClient,
)


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Answers POSTs from a canned script."""

    protocol_version = "HTTP/1.0"  # one connection per request: a
    # dropped connection only loses the attempt it was scripted to lose

    def log_message(self, *args):  # noqa: D102 - silence test output
        pass

    def do_POST(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            self.rfile.read(length)
        self.server.attempts.append(time.monotonic())
        step = self.server.script.pop(0) if self.server.script else {"status": 200}
        if step.get("hang_up"):
            # slam the connection: the client sees a transport error
            self.connection.close()
            return
        status = step["status"]
        if status == 200:
            body = wire.pack_v2(step.get("payload", "pong"))
            content_type = wire.CONTENT_TYPE
        else:
            body = json.dumps(
                {"error": step.get("error", "scripted failure")}
            ).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in step.get("headers", {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture()
def stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.script = []
    server.attempts = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _client(stub, **kwargs):
    host, port = stub.server_address
    kwargs.setdefault("timeout", 5.0)
    return ServiceClient(f"{host}:{port}", **kwargs)


class Test429Path:
    def test_retry_after_hint_then_success(self, stub):
        stub.script = [
            {"status": 429, "error": "over capacity", "headers": {"Retry-After": "0.15"}},
            {"status": 200, "payload": "recovered"},
        ]
        client = _client(stub, retries=2, retry_wait=10.0)  # hint, not retry_wait
        started = time.monotonic()
        assert client.post("/plan", "req") == "recovered"
        elapsed = time.monotonic() - started
        assert len(stub.attempts) == 2
        assert elapsed >= 0.15
        assert elapsed < 5.0  # retry_wait=10 would have blown this

    def test_exhausted_budget_raises_with_code(self, stub):
        stub.script = [
            {"status": 429, "error": "over capacity", "headers": {"Retry-After": "0.02"}}
        ] * 10
        client = _client(stub, retries=2)
        with pytest.raises(PlanServiceError) as err:
            client.post("/plan", "req")
        assert err.value.code == 429
        assert "over capacity" in str(err.value)
        assert not isinstance(err.value, PlanServiceUnavailable)
        assert len(stub.attempts) == 3  # bounded: retries + 1, no more

    def test_retries_zero_fails_immediately(self, stub):
        stub.script = [
            {"status": 429, "headers": {"Retry-After": "30"}},
            {"status": 200},
        ]
        client = _client(stub, retries=0)
        started = time.monotonic()
        with pytest.raises(PlanServiceError) as err:
            client.post("/plan", "req")
        assert err.value.code == 429
        assert time.monotonic() - started < 1.0  # never slept the hint
        assert len(stub.attempts) == 1

    def test_retry_after_capped(self, stub):
        stub.script = [
            {"status": 429, "headers": {"Retry-After": "3600"}},
            {"status": 200, "payload": "ok"},
        ]
        client = _client(stub, retries=1, retry_after_cap=0.1)
        started = time.monotonic()
        assert client.post("/plan", "req") == "ok"
        assert time.monotonic() - started < 2.0  # hour-long hint clamped

    def test_garbage_retry_after_falls_back_to_retry_wait(self, stub):
        stub.script = [
            {"status": 429, "headers": {"Retry-After": "soon-ish"}},
            {"status": 200, "payload": "ok"},
        ]
        client = _client(stub, retries=1, retry_wait=0.05)
        assert client.post("/plan", "req") == "ok"
        assert len(stub.attempts) == 2

    def test_http_date_retry_after_is_honoured(self, stub):
        """Regression: only the numeric Retry-After form was parsed;
        the RFC 7231 HTTP-date form silently fell back to retry_wait,
        defeating the server's hint under sustained 429s."""
        # formatdate truncates to whole seconds: date a whole-second
        # instant at least one second ahead so the hint never rounds
        # below the elapsed floor checked further down
        when = email.utils.formatdate(math.floor(time.time()) + 2, usegmt=True)
        stub.script = [
            {"status": 429, "headers": {"Retry-After": when}},
            {"status": 200, "payload": "recovered"},
        ]
        # retry_wait tiny: pre-fix, the fallback retries almost
        # immediately and the elapsed floor below fails
        client = _client(stub, retries=1, retry_wait=0.001)
        started = time.monotonic()
        assert client.post("/plan", "req") == "recovered"
        elapsed = time.monotonic() - started
        # anything clearly above the 0.001s fallback proves the date
        # was parsed
        assert elapsed >= 0.2
        assert len(stub.attempts) == 2

    def test_http_date_retry_after_capped(self, stub):
        when = email.utils.formatdate(time.time() + 3600, usegmt=True)
        stub.script = [
            {"status": 429, "headers": {"Retry-After": when}},
            {"status": 200, "payload": "ok"},
        ]
        client = _client(stub, retries=1, retry_after_cap=0.1)
        started = time.monotonic()
        assert client.post("/plan", "req") == "ok"
        assert time.monotonic() - started < 2.0  # hour-away date clamped

    def test_http_date_in_the_past_retries_immediately(self, stub):
        when = email.utils.formatdate(time.time() - 300, usegmt=True)
        stub.script = [
            {"status": 429, "headers": {"Retry-After": when}},
            {"status": 200, "payload": "ok"},
        ]
        client = _client(stub, retries=1, retry_wait=30.0)
        started = time.monotonic()
        assert client.post("/plan", "req") == "ok"
        # "retry at a past instant" means now — not the 30s fallback
        assert time.monotonic() - started < 2.0


class TestNoRetryStatuses:
    @pytest.mark.parametrize("status", [400, 500, 503])
    def test_answered_errors_surface_immediately(self, stub, status):
        stub.script = [{"status": status, "error": "nope"}, {"status": 200}]
        client = _client(stub, retries=3)
        with pytest.raises(PlanServiceError) as err:
            client.post("/plan", "req")
        assert err.value.code == status
        assert "nope" in str(err.value)
        assert not isinstance(err.value, PlanServiceUnavailable)
        assert len(stub.attempts) == 1  # the 200 was never consumed


class TestTransportPath:
    def test_dropped_connection_retries_then_succeeds(self, stub):
        stub.script = [{"hang_up": True}, {"status": 200, "payload": "back"}]
        client = _client(stub, retries=2, retry_wait=0.02)
        assert client.post("/plan", "req") == "back"
        assert len(stub.attempts) == 2

    def test_exhausted_transport_raises_unavailable(self, stub):
        stub.script = [{"hang_up": True}] * 10
        client = _client(stub, retries=2, retry_wait=0.02)
        with pytest.raises(PlanServiceUnavailable):
            client.post("/plan", "req")
        assert len(stub.attempts) == 3

    def test_unreachable_port_raises_unavailable(self):
        # grab a port and close it so nothing listens there
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServiceClient(
            f"127.0.0.1:{port}", retries=1, retry_wait=0.02
        )
        with pytest.raises(PlanServiceUnavailable) as err:
            client.post("/plan", "req")
        assert err.value.code is None

    def test_linear_backoff_between_transport_attempts(self, stub):
        stub.script = [{"hang_up": True}, {"hang_up": True}, {"status": 200}]
        client = _client(stub, retries=2, retry_wait=0.1)
        started = time.monotonic()
        client.post("/plan", "req")
        # sleeps: 0.1 * 1 + 0.1 * 2
        assert time.monotonic() - started >= 0.3


class TestValidation:
    def test_retry_after_cap_must_be_positive(self, stub):
        with pytest.raises(ValueError):
            _client(stub, retry_after_cap=0)

    def test_negative_retries_rejected(self, stub):
        with pytest.raises(ValueError):
            _client(stub, retries=-1)
