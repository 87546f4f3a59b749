"""Structured access logging: format/parse, server + coordinator hooks."""

import io

import pytest

from repro.cluster.coordinator import ClusterCoordinator
from repro.service.client import PlanServiceError, ServiceClient
from repro.service.metrics import (
    AccessLog,
    format_access_line,
    parse_access_line,
)
from repro.service.server import PlanServer
from repro.loadtest import request_stream


class TestFormatParse:
    def test_round_trip(self):
        line = format_access_line("/plan", 200, 0.001234, nbytes=456)
        parsed = parse_access_line(line)
        assert parsed["endpoint"] == "/plan"
        assert parsed["status"] == 200
        assert parsed["elapsed_ms"] == pytest.approx(1.234)
        assert parsed["bytes"] == 456
        assert "wire=" not in line
        assert parsed["ts"].endswith("+00:00")
        assert parsed["trace"] == "-"  # untraced request

    def test_trace_id_round_trips(self):
        line = format_access_line(
            "/plan_batch", 200, 0.002, trace="deadbeefcafef00d"
        )
        assert parse_access_line(line)["trace"] == "deadbeefcafef00d"

    def test_empty_trace_becomes_dash(self):
        assert parse_access_line(
            format_access_line("/plan", 200, 0.0, trace="")
        )["trace"] == "-"

    def test_parse_rejects_missing_trace_field(self):
        # a pre-trace-era line is incomplete now, by design: consumers
        # must never silently read half a schema
        line = (
            "ts=x endpoint=/plan status=200 elapsed_ms=1.0 wire=- bytes=0"
        )
        with pytest.raises(ValueError, match=r"missing field.*trace"):
            parse_access_line(line)

    def test_explicit_timestamp(self):
        line = format_access_line(
            "/healthz", 200, 0.0, ts="2026-08-08T00:00:00.000+00:00"
        )
        assert parse_access_line(line)["ts"] == "2026-08-08T00:00:00.000+00:00"

    def test_line_with_wire_column_still_parses(self):
        # servers before one wire format wrote a wire= column; logs
        # they left behind must stay readable
        line = (
            "ts=2026-08-08T00:00:00.000+00:00 endpoint=/plan status=200 "
            "elapsed_ms=1.5 wire=binary-v2 bytes=42 trace=deadbeefcafef00d"
        )
        assert parse_access_line(line) == {
            "ts": "2026-08-08T00:00:00.000+00:00",
            "endpoint": "/plan",
            "status": 200,
            "elapsed_ms": 1.5,
            "bytes": 42,
            "trace": "deadbeefcafef00d",
        }

    def test_parse_rejects_non_kv_token(self):
        with pytest.raises(ValueError, match="not an access-log token"):
            parse_access_line("ts=x endpoint=/plan garbage")

    def test_parse_rejects_missing_fields(self):
        with pytest.raises(ValueError, match="missing field"):
            parse_access_line("ts=x endpoint=/plan status=200")


class TestAccessLog:
    def test_records_to_stream(self):
        buf = io.StringIO()
        log = AccessLog(buf)
        log.record("/plan", 200, 0.002, nbytes=10)
        log.record("/plan", 500, 0.004)
        assert log.lines_written == 2
        lines = buf.getvalue().splitlines()
        assert len(lines) == 2
        assert parse_access_line(lines[1])["status"] == 500

    def test_open_appends_to_file(self, tmp_path):
        path = tmp_path / "access.log"
        log = AccessLog.open(str(path))
        log.record("/plan", 200, 0.001)
        log.close()
        log = AccessLog.open(str(path))
        log.record("/plan_batch", 200, 0.002)
        log.close()
        lines = path.read_text().splitlines()
        assert [parse_access_line(l)["endpoint"] for l in lines] == [
            "/plan",
            "/plan_batch",
        ]

    def test_closed_stream_never_raises(self):
        buf = io.StringIO()
        log = AccessLog(buf)
        buf.close()
        log.record("/plan", 200, 0.001)  # must not raise
        assert log.lines_written == 0

    def test_close_leaves_borrowed_streams_open(self):
        buf = io.StringIO()
        AccessLog(buf).close()
        assert not buf.closed


class TestServerHook:
    def test_every_response_logged_and_counted(self):
        buf = io.StringIO()
        with PlanServer(access_log=AccessLog(buf)) as server:
            client = ServiceClient(server.url, retries=0)
            op = request_stream(1, seed=1, mix={"plan": 1.0})[0]
            client.plan(op.payload)
            client.healthz()
            with pytest.raises(PlanServiceError):
                client.get_json("/nonsense")
            metrics = server.metrics.payload()["endpoints"]
        parsed = [
            parse_access_line(l) for l in buf.getvalue().splitlines()
        ]
        by_endpoint = {}
        for entry in parsed:
            by_endpoint.setdefault(entry["endpoint"], []).append(entry)
        # the log and the histograms must agree request-for-request
        for endpoint, entries in by_endpoint.items():
            assert metrics[endpoint]["count"] == len(entries)
        plan_lines = by_endpoint["/plan"]
        assert plan_lines[0]["status"] == 200
        assert plan_lines[0]["bytes"] > 0
        # the unknown path is logged under the bounded "other" bucket
        assert by_endpoint["other"][0]["status"] == 404

    def test_server_without_log_still_serves(self):
        with PlanServer() as server:
            assert ServiceClient(server.url).healthz()["status"] == "ok"

    def test_close_closes_owned_log(self, tmp_path):
        path = tmp_path / "srv.log"
        server = PlanServer(access_log=AccessLog.open(str(path)))
        server.start()
        ServiceClient(server.url).healthz()
        server.close()
        assert server.access_log._stream.closed
        assert len(path.read_text().splitlines()) >= 1


class TestCoordinatorHook:
    def test_frontdoor_requests_logged(self):
        buf = io.StringIO()
        with PlanServer() as worker:
            with ClusterCoordinator(
                workers=[worker.url],
                heartbeat_interval=30.0,
                access_log=AccessLog(buf),
            ) as coordinator:
                client = ServiceClient(coordinator.url, retries=0)
                op = request_stream(1, seed=1, mix={"plan": 1.0})[0]
                client.plan(op.payload)
                client.get_json("/cluster/status")
                front = coordinator.metrics.payload()["endpoints"]
        parsed = [
            parse_access_line(l) for l in buf.getvalue().splitlines()
        ]
        logged = {}
        for entry in parsed:
            logged[entry["endpoint"]] = logged.get(entry["endpoint"], 0) + 1
        assert logged["/plan"] == front["/plan"]["count"] == 1
        assert logged["/cluster/status"] == 1


class TestCLIWiring:
    def test_log_flag_parsing(self):
        from repro.cli import _access_log_from_arg, build_parser

        parser = build_parser()
        absent = parser.parse_args(["serve"])
        assert absent.log is None
        assert _access_log_from_arg(absent) is None
        bare = parser.parse_args(["serve", "--log"])
        assert bare.log == "-"
        cluster = parser.parse_args(["cluster", "up", "--log", "x.log"])
        assert cluster.log == "x.log"

    def test_log_flag_builds_file_log(self, tmp_path):
        import argparse

        from repro.cli import _access_log_from_arg

        path = tmp_path / "cli.log"
        log = _access_log_from_arg(argparse.Namespace(log=str(path)))
        log.record("/plan", 200, 0.001)
        log.close()
        assert parse_access_line(path.read_text().strip())["status"] == 200

    def test_bare_log_flag_streams_to_stderr(self):
        import argparse
        import sys

        from repro.cli import _access_log_from_arg

        log = _access_log_from_arg(argparse.Namespace(log="-"))
        assert log._stream is sys.stderr
        log.close()  # borrowed: must not close stderr
        assert not sys.stderr.closed

    def test_trace_flag_parsing(self):
        from repro.cli import _span_recorder_from_arg, build_parser

        parser = build_parser()
        absent = parser.parse_args(["serve"])
        assert absent.trace is None
        assert _span_recorder_from_arg(absent, "server") is None
        bare = parser.parse_args(["serve", "--trace"])
        assert bare.trace == "-"
        # cluster workers are subprocesses writing PATH.wN: a path is
        # mandatory there, so the flag takes a plain argument
        cluster = parser.parse_args(["cluster", "up", "--trace", "x.jsonl"])
        assert cluster.trace == "x.jsonl"

    def test_trace_flag_builds_recorders(self, tmp_path):
        import argparse
        import sys

        from repro.cli import _span_recorder_from_arg

        bare = _span_recorder_from_arg(
            argparse.Namespace(trace="-"), "server"
        )
        assert bare._stream is sys.stderr
        assert bare.service == "server"
        bare.close()
        assert not sys.stderr.closed

        path = tmp_path / "spans.jsonl"
        recorder = _span_recorder_from_arg(
            argparse.Namespace(trace=str(path)), "coordinator"
        )
        assert recorder.service == "coordinator"
        recorder.close()
        assert path.exists()
