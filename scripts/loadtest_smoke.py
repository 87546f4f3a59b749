#!/usr/bin/env python3
"""CI smoke for the load-test harness: cluster up → loadtest → logs.

Boots ``repro cluster up -n 2 --log PATH --trace PATH`` on an
ephemeral port, then asserts the operability tentpole end to end,
from outside the process:

1. ``repro loadtest --trace-sample 5`` sustains traffic against the
   coordinator for 5 seconds and exits 0 — achieved RPS > 0, zero
   answered errors, zero transport failures, and the client-vs-server
   ``/metrics`` request-count cross-check matching exactly (the JSON
   report is the proof, not the exit code alone);
2. the coordinator's access log holds one parseable line per
   front-door request — every line round-trips through
   ``parse_access_line`` and the planning-endpoint line counts agree
   with the loadtest's own books, and clients kept their connections
   alive: over the run the coordinator accepted at most one connection
   per ten requests it counted;
3. every sampled trace assembles *completely* from the client,
   coordinator, and worker span files — one trace per sampled op,
   no orphans — and every sampled access line's trace id appears in
   the assembled set (the log and the trace files name the same
   requests);
4. ``repro cluster down`` cleans up.

Exits non-zero on any failure; prints a BENCH-style JSON line so CI
logs are grep-able.

Run: ``python scripts/loadtest_smoke.py``
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
BANNER_RE = re.compile(r"cluster coordinator listening on (http://\S+)")

LOADTEST_RPS = 40
LOADTEST_DURATION_S = 5
TRACE_SAMPLE = 5  # 1-in-5 ops carries a trace context
#: most connections the coordinator may accept per request it counts
MAX_CONNECTIONS_PER_REQUEST = 0.1


def coordinator_totals(url: str) -> tuple:
    """(connections accepted, requests counted) by the coordinator."""
    with urllib.request.urlopen(f"{url}/metrics", timeout=30) as resp:
        own = json.loads(resp.read())["coordinator"]
    requests = sum(ep["count"] for ep in own["endpoints"].values())
    return own["connections"]["accepted"], requests


def client_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    return env


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.obs import assemble_traces, read_spans
    from repro.service.metrics import parse_access_line

    with tempfile.TemporaryDirectory(prefix="repro-loadtest-smoke-") as tmp:
        state_path = Path(tmp) / "cluster.json"
        log_path = Path(tmp) / "access.log"
        trace_path = Path(tmp) / "spans.jsonl"
        client_trace_path = Path(tmp) / "client-spans.jsonl"
        up = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "cluster", "up",
                "-n", "2",
                "--port", "0",
                "--state", str(state_path),
                "--log", str(log_path),
                "--trace", str(trace_path),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=client_env(),
        )
        try:
            url = None
            deadline = time.time() + 60
            while time.time() < deadline:
                line = up.stdout.readline()
                if not line:
                    raise SystemExit(
                        f"cluster up exited ({up.poll()}) before its banner"
                    )
                match = BANNER_RE.search(line)
                if match:
                    url = match.group(1)
                    break
            if url is None:
                raise SystemExit("no coordinator banner within 60s")

            # 1. the loadtest itself: 5s of traffic, strict verdict
            accepted_before, requests_before = coordinator_totals(url)
            proc = subprocess.run(
                [
                    sys.executable, "-m", "repro", "loadtest", url,
                    "--rps", str(LOADTEST_RPS),
                    "--duration", str(LOADTEST_DURATION_S),
                    "--trace-sample", str(TRACE_SAMPLE),
                    "--trace-file", str(client_trace_path),
                    "--json",
                ],
                capture_output=True,
                text=True,
                env=client_env(),
                timeout=300,
            )
            if proc.returncode != 0:
                raise SystemExit(
                    f"repro loadtest failed ({proc.returncode}):\n"
                    f"{proc.stdout}\n{proc.stderr}"
                )
            accepted_after, requests_after = coordinator_totals(url)
            report = json.loads(proc.stdout)
            assert report["verdict"] == "pass", report
            assert report["achieved_rps"] > 0, report
            assert report["errors"] == 0, report
            assert report["unavailable"] == 0, report
            assert report["server_check_ok"] is True, report
            assert report["server_check"], "cross-check must have run"
            for check in report["server_check"]:
                assert check["matched"], check

            # 2. every access line parses; the log agrees with the books
            lines = [
                line
                for line in log_path.read_text().splitlines()
                if line.strip()
            ]
            assert lines, f"no access lines in {log_path}"
            parsed = [parse_access_line(line) for line in lines]
            logged = {}
            for entry in parsed:
                logged[entry["endpoint"]] = logged.get(entry["endpoint"], 0) + 1
            for check in report["server_check"]:
                assert logged.get(check["endpoint"], 0) >= check["expected"], (
                    f"access log undercounts {check['endpoint']}: "
                    f"{logged} vs {check}"
                )

            # connection reuse: a client opening one connection per
            # request would make these two deltas equal
            accepted = accepted_after - accepted_before
            counted = requests_after - requests_before
            assert accepted <= MAX_CONNECTIONS_PER_REQUEST * counted, (
                f"coordinator accepted {accepted} connections for "
                f"{counted} requests"
            )

            # 3. every sampled trace assembles completely across the
            # client, coordinator, and worker span files
            time.sleep(0.5)  # server roots close after the response
            trace_report = report.get("trace")
            assert trace_report, "loadtest report carries no trace section"
            assert trace_report["sample"] == TRACE_SAMPLE, trace_report
            assert trace_report["sampled"] > 0, trace_report
            span_files = [str(client_trace_path), str(trace_path)] + [
                str(trace_path) + f".w{i}"
                for i in range(2)
                if (Path(str(trace_path) + f".w{i}")).exists()
            ]
            spans = read_spans(span_files)
            traces = assemble_traces(spans)
            sampled_ids = set(trace_report["trace_ids"])
            assembled_ids = {t.trace_id for t in traces}
            assert assembled_ids == sampled_ids, (
                f"trace files hold {len(assembled_ids)} trace ids, "
                f"loadtest sampled {len(sampled_ids)}"
            )
            incomplete = [t.trace_id for t in traces if not t.complete]
            assert not incomplete, (
                f"{len(incomplete)} of {len(traces)} sampled traces "
                f"did not assemble completely: {incomplete[:5]}"
            )
            # every sampled access line names a trace the files hold
            logged_ids = {
                entry["trace"] for entry in parsed if entry["trace"] != "-"
            }
            assert logged_ids, "no access line carried a trace id"
            assert logged_ids <= assembled_ids, (
                f"access log names trace ids missing from the span "
                f"files: {sorted(logged_ids - assembled_ids)[:5]}"
            )

            # 4. clean teardown
            down = subprocess.run(
                [
                    sys.executable, "-m", "repro", "cluster", "down",
                    "--state", str(state_path),
                ],
                capture_output=True,
                text=True,
                env=client_env(),
                timeout=60,
            )
            if down.returncode != 0:
                raise SystemExit(
                    f"cluster down failed ({down.returncode}):\n"
                    f"{down.stdout}\n{down.stderr}"
                )

            print(
                "BENCH "
                + json.dumps(
                    {
                        "name": "loadtest_smoke",
                        "achieved_rps": report["achieved_rps"],
                        "sent": report["sent"],
                        "p99_ms": report["p99_ms"],
                        "access_lines": len(lines),
                        "coordinator_connections": accepted,
                        "traces_sampled": trace_report["sampled"],
                        "traces_complete": len(traces) - len(incomplete),
                    }
                )
            )
            print("loadtest smoke OK")
            return 0
        finally:
            if up.poll() is None:
                up.terminate()
                try:
                    up.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    up.kill()
                    up.wait()
            time.sleep(0.1)


if __name__ == "__main__":
    sys.exit(main())
