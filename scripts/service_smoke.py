#!/usr/bin/env python3
"""CI smoke for the planning service: serve → remote panel → shared hits.

Boots ``repro serve`` on an ephemeral port with a durable (sqlite)
store, runs the same small Figure-4 panel from two *separate client
processes* with ``--backend remote:HOST:PORT`` and no local cache —
both speaking binary-v2, the only wire format — and then asserts:

1. ``/healthz`` advertises ``["binary-v2"]`` as the one wire profile;
2. a pickle-v1 body whose unpickling would create a marker file is
   answered 400 on every envelope route, and the marker never exists;
3. no route writes the store: ``/cache/put`` and ``/cache/clear``
   answer 404;
4. the two panels render identically (remote planning is
   deterministic);
5. ``/cache/stats`` shows the second client served entirely as sqlite
   disk hits from the store the first client warmed: hits, no misses.

Exits non-zero on any failure; prints a BENCH-style JSON line with the
observed hit counts so CI logs are grep-able.

Run: ``python scripts/service_smoke.py``
"""

from __future__ import annotations

import json
import os
import pickle
import re
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
PANEL_ARGS = [
    "figure4",
    "--model",
    "uniform",
    "--processors",
    "10",
    "--trials",
    "3",
    "--no-cache",  # clients stay cold; all sharing happens server-side
]


def client_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    return env


def run_cli(args: list[str]) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=client_env(),
        timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"client command {args} failed ({proc.returncode}):\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    return proc.stdout


class Marker:
    """Unpickling this creates the marker file (a stand-in for harm)."""

    def __init__(self, path: str) -> None:
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


def assert_pickle_refused(url: str, marker: Path) -> None:
    """Every envelope route answers a pickle-v1 body 400, unpickled."""
    body = b"repro-plan-wire:v1\n" + pickle.dumps(Marker(str(marker)))
    for route in ("/plan", "/plan_batch", "/cache/get"):
        request = urllib.request.Request(f"{url}{route}", data=body)
        try:
            urllib.request.urlopen(request, timeout=10)
        except urllib.error.HTTPError as err:
            assert err.code == 400, f"{route} answered a pickle {err.code}"
        else:
            raise SystemExit(f"{route} accepted a pickle-v1 body")
    assert not marker.exists(), "a pickle-v1 body was unpickled"


def assert_store_writes_refused(url: str) -> None:
    """No route writes a store: the old cache write routes are 404s."""
    for route in ("/cache/put", "/cache/clear"):
        request = urllib.request.Request(f"{url}{route}", data=b"")
        try:
            urllib.request.urlopen(request, timeout=10)
        except urllib.error.HTTPError as err:
            assert err.code == 404, f"{route} answered {err.code}"
        else:
            raise SystemExit(f"{route} was answered")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-service-smoke-") as tmp:
        store = Path(tmp) / "plans.db"
        server = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--cache",
                f"sqlite:{store}",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=client_env(),
        )
        try:
            banner = server.stdout.readline()
            match = re.search(r"listening on (http://[\d.]+:\d+)", banner)
            if not match:
                raise SystemExit(f"no server banner, got: {banner!r}")
            url = match.group(1)
            address = url.removeprefix("http://")

            health = json.loads(
                urllib.request.urlopen(f"{url}/healthz", timeout=10).read()
            )
            assert health["status"] == "ok", health
            assert health["wire_profiles"] == ["binary-v2"], (
                f"healthz must advertise binary-v2 only: {health}"
            )
            assert_pickle_refused(url, Path(tmp) / "unpickled")
            assert_store_writes_refused(url)

            remote = PANEL_ARGS + ["--backend", f"remote:{address}"]
            first = run_cli(remote)
            stats_after_first = json.loads(
                urllib.request.urlopen(f"{url}/cache/stats", timeout=10).read()
            )
            second = run_cli(remote)
            stats = json.loads(
                urllib.request.urlopen(f"{url}/cache/stats", timeout=10).read()
            )

            assert first == second, "remote panels differ between clients"
            disk_hits = stats["hits"] - stats_after_first["hits"]
            second_misses = stats["misses"] - stats_after_first["misses"]
            assert stats["entries"] > 0, stats
            assert disk_hits > 0, (
                f"second client produced no shared-store hits: {stats}"
            )
            assert second_misses == 0, (
                f"second client was not served from the warmed store: {stats}"
            )
            print(
                "BENCH "
                + json.dumps(
                    {
                        "name": "service_smoke",
                        "wire_profiles": health["wire_profiles"],
                        "entries": stats["entries"],
                        "first_run_misses": stats_after_first["misses"],
                        "second_run_disk_hits": disk_hits,
                    }
                )
            )
            print("service smoke OK")
            return 0
        finally:
            server.terminate()
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
            time.sleep(0.1)


if __name__ == "__main__":
    sys.exit(main())
