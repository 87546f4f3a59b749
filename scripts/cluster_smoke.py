#!/usr/bin/env python3
"""CI smoke for cluster mode: up -n 3 → two clients → kill → reroute.

Boots ``repro cluster up -n 3`` on an ephemeral port, then asserts the
whole operability story end to end, from outside the process:

1. the coordinator fronts the pool — ``/healthz`` reports 3 alive
   workers and ``["binary-v2"]`` as the one wire profile — and answers
   a pickle-v1 body whose unpickling would create a marker file with a
   400 on every envelope route, the marker never existing;
   ``repro cluster status`` reports ``workers 3/3 alive``;
2. membership is static: POST ``/workers/register`` (a URL nothing
   listens on) is a 404 and the pool stays at 3 workers;
3. the same Figure-4 panel rendered through the coordinator by two
   separate binary-v2 client processes is identical;
4. SIGKILL-ing one worker (pid from the state file) is invisible to
   the next client — the panel still renders identically,
   ``/cluster/status`` settles at 2 alive workers, and
   ``repro cluster status`` shows ``workers 2/3 alive`` with one
   ``[DEAD]`` line; a 6-request ``VectorGroup`` POSTed to the
   coordinator then comes back as a ``cat`` of two ``sub`` refs (each
   survivor's reply relayed undecoded) that decodes equal to local
   planning at rtol=1e-12;
5. ``/metrics`` aggregates: the coordinator observed every
   ``/plan_batch`` and the cluster-wide merge carries the workers'
   counts;
6. ``repro cluster down`` stops everything: the ``up`` process exits,
   the state file is gone, the worker pids are dead.

Exits non-zero on any failure; prints a BENCH-style JSON line so CI
logs are grep-able.

Run: ``python scripts/cluster_smoke.py``
"""

from __future__ import annotations

import json
import os
import pickle
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core.pipeline import PlanRequest  # noqa: E402
from repro.core.session import PlannerSession  # noqa: E402
from repro.core.vectorize import VectorGroup  # noqa: E402
from repro.platform.star import StarPlatform  # noqa: E402
from repro.service import wire  # noqa: E402

BANNER_RE = re.compile(r"cluster coordinator listening on (http://\S+)")
PANEL_ARGS = [
    "figure4",
    "--model",
    "uniform",
    "--processors",
    "10",
    "--trials",
    "3",
    "--no-cache",  # clients stay cold; sharing happens cluster-side
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
    for route in ("/plan", "/plan_batch", "/cache/get", "/cache/put"):
        request = urllib.request.Request(f"{url}{route}", data=body)
        try:
            urllib.request.urlopen(request, timeout=10)
        except urllib.error.HTTPError as err:
            assert err.code == 400, f"{route} answered a pickle {err.code}"
        else:
            raise SystemExit(f"{route} accepted a pickle-v1 body")
    assert not marker.exists(), "a pickle-v1 body was unpickled"


def assert_register_refused(url: str) -> None:
    """No route adds a worker: the old push route is a 404."""
    body = json.dumps({"url": "http://127.0.0.1:1"}).encode()
    request = urllib.request.Request(
        f"{url}/workers/register",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    try:
        urllib.request.urlopen(request, timeout=10)
    except urllib.error.HTTPError as err:
        assert err.code == 404, f"/workers/register answered {err.code}"
    else:
        raise SystemExit("/workers/register accepted a worker")
    total = get_json(f"{url}/cluster/status")["pool"]["total"]
    assert total == 3, f"pool grew to {total} workers"


def assert_group_relayed(url: str) -> None:
    """A group sharded over the two alive workers comes back as their
    two replies, relayed undecoded, and decodes to local planning."""
    platform = StarPlatform.from_speeds([1.0, 2.0, 3.0, 5.0, 8.0])
    requests = [
        PlanRequest(platform=platform, N=1500.0 + 250.0 * i, strategy="het")
        for i in range(6)
    ]
    group = VectorGroup(strategy="het", requests=tuple(requests))
    request = urllib.request.Request(
        f"{url}/plan_batch", data=wire.pack_v2([group])
    )
    answer = urllib.request.urlopen(request, timeout=30).read()
    payload = wire.read_header(answer)[0]["payload"]
    assert payload == ["l", ["cat", ["sub", 0, 0], ["sub", 1, 0]]], payload
    (relayed,) = wire.unpack_v2(answer, relayed=True)
    with PlannerSession(cache=False) as local:
        expected = local.plan_batch(requests)
    assert len(relayed) == len(expected) == 6
    for got, want in zip(relayed, expected):
        assert got.request == want.request, (got.request, want.request)
        np.testing.assert_allclose(
            got.plan.finish_times, want.plan.finish_times, rtol=1e-12
        )
        np.testing.assert_allclose(
            got.plan.comm_volume, want.plan.comm_volume, rtol=1e-12
        )


def get_json(url: str) -> dict:
    return json.loads(urllib.request.urlopen(url, timeout=10).read())


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


def wait_for(predicate, timeout_s: float, what: str):
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.1)
    raise SystemExit(f"timed out after {timeout_s}s waiting for {what}")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-cluster-smoke-") as tmp:
        state_path = Path(tmp) / "cluster.json"
        up = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "cluster",
                "up",
                "-n",
                "3",
                "--port",
                "0",
                "--state",
                str(state_path),
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
            address = url.removeprefix("http://")

            # 1. front door fronts a live pool and speaks binary-v2 only
            health = get_json(f"{url}/healthz")
            assert health["role"] == "coordinator", health
            assert health["workers_alive"] == 3, health
            assert health["wire_profiles"] == ["binary-v2"], (
                f"coordinator must advertise binary-v2 only: {health}"
            )
            assert_pickle_refused(url, Path(tmp) / "unpickled")
            state = json.loads(state_path.read_text())
            assert len(state["workers"]) == 3, state
            status = run_cli(["cluster", "status", "--state", str(state_path)])
            assert "workers 3/3 alive" in status, status
            assert "dispatch=" not in status, status

            # 2. membership is the pool the coordinator started with
            assert_register_refused(url)

            # 3. same panel from two separate client processes
            remote = PANEL_ARGS + ["--backend", f"remote:{address}"]
            panel_first = run_cli(remote)
            panel_second = run_cli(remote)
            assert panel_first == panel_second, (
                "panels differ between client processes"
            )

            # 4. SIGKILL one worker; the next client must not notice
            # (the dead child lingers as a zombie of the `up` process
            # until teardown reaps it, so no pid-liveness wait here —
            # the /cluster/status settle below proves the kill landed)
            victim = state["workers"][0]["pid"]
            os.kill(victim, signal.SIGKILL)
            panel_after_kill = run_cli(remote)
            assert panel_after_kill == panel_first, (
                "panel changed after a worker was killed"
            )
            alive = wait_for(
                lambda: get_json(f"{url}/cluster/status")["pool"]["alive"] == 2,
                15,
                "the pool to settle at 2 alive workers",
            )
            assert alive, "pool never reported the killed worker dead"
            status = run_cli(["cluster", "status", "--state", str(state_path)])
            assert "workers 2/3 alive" in status, status
            assert status.count("[DEAD]") == 1, status
            assert_group_relayed(url)

            # 5. metrics aggregate across the survivors
            metrics = get_json(f"{url}/metrics")
            coord_batches = metrics["coordinator"]["endpoints"]["/plan_batch"]
            assert coord_batches["count"] >= 3, metrics["coordinator"]
            cluster_batches = metrics["cluster"]["endpoints"]["/plan_batch"]
            assert cluster_batches["count"] >= 3, metrics["cluster"]
            assert cluster_batches["errors"] == 0, metrics["cluster"]

            # 6. down stops everything and cleans up
            down = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "cluster",
                    "down",
                    "--state",
                    str(state_path),
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
            wait_for(
                lambda: up.poll() is not None, 15, "cluster up to exit"
            )
            assert not state_path.exists(), "state file survived down"
            for worker in state["workers"]:
                assert not pid_alive(worker["pid"]), (
                    f"worker pid {worker['pid']} survived down"
                )

            print(
                "BENCH "
                + json.dumps(
                    {
                        "name": "cluster_smoke",
                        "workers": 3,
                        "alive_after_kill": 2,
                        "relayed_shards": 2,
                        "coordinator_plan_batches": coord_batches["count"],
                        "cluster_plan_batches": cluster_batches["count"],
                    }
                )
            )
            print("cluster smoke OK")
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
