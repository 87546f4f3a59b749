"""LocalCluster: subprocess workers, state file, kill/teardown."""

import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cluster.lifecycle import (
    LocalCluster,
    cluster_status,
    read_state,
    remove_state,
    write_state,
)
from repro.core.pipeline import PlanRequest
from repro.core.session import PlannerSession
from repro.platform.star import StarPlatform
from repro.service.client import ServiceClient


class TestWorkerCommand:
    """Spawn-free unit tests of the command/state plumbing."""

    def test_cache_spec_templating(self):
        cluster = LocalCluster(n=2, cache="sqlite:/tmp/plans-{i}.db")
        command = cluster._worker_command(1)
        assert "sqlite:/tmp/plans-1.db" in command

    def test_no_cache_flag(self):
        cluster = LocalCluster(n=1, cache=None)
        assert "--no-cache" in cluster._worker_command(0)
        assert "--cache" not in cluster._worker_command(0)

    def test_worker_max_inflight_forwarded(self):
        cluster = LocalCluster(n=1, worker_max_inflight=4)
        command = cluster._worker_command(0)
        assert command[command.index("--max-inflight") + 1] == "4"

    def test_workers_always_bind_ephemeral_ports(self):
        cluster = LocalCluster(n=1, port=8650)
        command = cluster._worker_command(0)
        assert command[command.index("--port") + 1] == "0"

    def test_needs_at_least_one_worker(self):
        with pytest.raises(ValueError):
            LocalCluster(n=0)

    def test_state_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "state.json")
        state = {"coordinator": {"url": "http://x", "pid": 1}, "workers": []}
        write_state(path, state)
        assert read_state(path) == state
        remove_state(path)
        with pytest.raises(FileNotFoundError):
            read_state(path)
        remove_state(path)  # second removal is a no-op


class TestLocalCluster:
    def test_cluster_round_trip_and_kill(self, tmp_path):
        state_path = str(tmp_path / "cluster.json")
        platform = StarPlatform.from_speeds([1.0, 2.0, 4.0, 8.0])
        requests = [
            PlanRequest(platform=platform, N=100.0 + i, strategy="het")
            for i in range(8)
        ]
        with PlannerSession(cache=False) as local:
            expected = local.plan_batch(requests)
        with LocalCluster(
            n=2, state_path=state_path, heartbeat_interval=0.2
        ) as cluster:
            # state file records the running topology
            state = read_state(state_path)
            assert state["coordinator"]["url"] == cluster.url
            assert len(state["workers"]) == 2
            assert all(w["url"] for w in state["workers"])

            address = (
                f"{cluster.coordinator.host}:{cluster.coordinator.port}"
            )
            with PlannerSession(
                backend=f"remote:{address}", cache=False
            ) as remote:
                actual = remote.plan_batch(requests)
                for a, b in zip(actual, expected):
                    np.testing.assert_allclose(
                        a.plan.finish_times,
                        b.plan.finish_times,
                        rtol=1e-12,
                    )

                # SIGKILL one replica; planning must keep working
                cluster.kill_worker(0, signal.SIGKILL)
                actual = remote.plan_batch(requests)
                for a, b in zip(actual, expected):
                    np.testing.assert_allclose(
                        a.plan.finish_times,
                        b.plan.finish_times,
                        rtol=1e-12,
                    )

            # status reflects the death once heartbeats notice
            deadline = time.time() + 10
            alive = None
            while time.time() < deadline:
                alive = cluster_status(cluster.url)["pool"]["alive"]
                if alive == 1:
                    break
                time.sleep(0.1)
            assert alive == 1
        # teardown removed the state file and reaped the workers,
        # closing the pipes their output drained through
        with pytest.raises(FileNotFoundError):
            read_state(state_path)
        assert all(not w.alive() for w in cluster.workers)
        assert all(w.proc.stdout.closed for w in cluster.workers)

    def test_cluster_status_command(self, tmp_path, capsys):
        from repro.cli import main

        state_path = str(tmp_path / "cluster.json")
        with LocalCluster(
            n=2, state_path=state_path, heartbeat_interval=0.2
        ) as cluster:
            assert "dispatch" not in read_state(state_path)
            assert main(["cluster", "status", "--state", state_path]) == 0
            out = capsys.readouterr().out
            assert f"coordinator {cluster.url}  workers 2/2 alive" in out
            assert "dispatch=" not in out
            assert out.count("[up  ]") == 2

            cluster.kill_worker(0, signal.SIGKILL)
            deadline = time.time() + 10
            while time.time() < deadline:
                if cluster_status(cluster.url)["pool"]["alive"] == 1:
                    break
                time.sleep(0.1)
            assert main(["cluster", "status", "--state", state_path]) == 0
            out = capsys.readouterr().out
            assert "workers 1/2 alive" in out
            dead = [line for line in out.splitlines() if "[DEAD]" in line]
            assert len(dead) == 1
            assert cluster.workers[0].url in dead[0]

    def test_cluster_status_without_state_file_exits_2(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        missing = str(tmp_path / "absent.json")
        assert main(["cluster", "status", "--state", missing]) == 2
        assert f"no cluster state at {missing}" in capsys.readouterr().err

    def test_cluster_status_of_an_unreachable_coordinator_exits_2(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        with socket.socket() as probe:  # a port nothing listens on
            probe.bind(("127.0.0.1", 0))
            url = f"http://127.0.0.1:{probe.getsockname()[1]}"
        state_path = str(tmp_path / "stale.json")
        write_state(state_path, {"coordinator": {"url": url, "pid": 0}})
        assert main(["cluster", "status", "--state", state_path]) == 2
        err = capsys.readouterr().err
        assert f"coordinator at {url} unreachable" in err
        assert "`repro cluster down` cleans up" in err

    def test_startup_failure_reports_worker_output(self, tmp_path):
        cluster = LocalCluster(
            n=1,
            cache="no-such-store:x",
            state_path=str(tmp_path / "broken.json"),
        )
        with pytest.raises(RuntimeError, match="did not report"):
            cluster.start()
        cluster.close()
        with pytest.raises(FileNotFoundError):
            read_state(str(tmp_path / "broken.json"))


class TestClusterUpSignals:
    """``repro cluster up`` as a real process, stopped by a signal."""

    @staticmethod
    def _pid_alive(pid):
        """Whether ``pid`` runs; a zombie (exited, not yet reaped) does not."""
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        try:
            return "\nState:\tZ" not in Path(f"/proc/{pid}/status").read_text()
        except FileNotFoundError:  # exited since, or no procfs
            return not Path("/proc/self").exists()

    @staticmethod
    def _cli(*args):
        src_dir = Path(repro.__file__).resolve().parents[1]
        return [sys.executable, "-m", "repro", *args], dict(
            os.environ, PYTHONPATH=str(src_dir)
        )

    def _start_cluster(self, state_path):
        """``repro cluster up -n 2`` and its state, once it wrote it."""
        command, env = self._cli(
            "cluster", "up", "-n", "2", "--port", "0",
            "--state", str(state_path),
        )
        proc = subprocess.Popen(
            command,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        deadline = time.monotonic() + 60
        try:
            while True:
                try:
                    return proc, read_state(str(state_path))
                except (FileNotFoundError, ValueError):  # not yet written
                    assert proc.poll() is None, "cluster up exited early"
                    assert time.monotonic() < deadline, "no state file"
                    time.sleep(0.05)
        except AssertionError:
            proc.kill()
            proc.wait(timeout=10)
            raise

    def test_sigterm_reaps_workers_and_removes_state(self, tmp_path):
        state_path = tmp_path / "cluster.json"
        proc, state = self._start_cluster(state_path)
        pids = []
        try:
            pids = [int(w["pid"]) for w in state["workers"]]
            assert len(pids) == 2
            assert all(self._pid_alive(pid) for pid in pids)

            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0

            deadline = time.monotonic() + 10
            while any(map(self._pid_alive, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in pids if self._pid_alive(pid)] == []
            assert not state_path.exists()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            for pid in pids:
                if self._pid_alive(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_down_stops_the_cluster_no_route_does(self, tmp_path):
        state_path = tmp_path / "cluster.json"
        proc, state = self._start_cluster(state_path)
        url = state["coordinator"]["url"]
        pids = [int(w["pid"]) for w in state["workers"]]
        try:
            assert len(pids) == 2
            shutdown = urllib.request.Request(
                f"{url}/cluster/shutdown", data=b"", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(shutdown, timeout=10)
            assert err.value.code == 404
            with ServiceClient(url) as client:
                own = client.get_json("/metrics")["coordinator"]["endpoints"]
                assert own["other"]["count"] == 1
                platform = StarPlatform.from_speeds([1.0, 2.0])
                assert client.plan(
                    PlanRequest(platform=platform, N=10.0, strategy="het")
                ).plan is not None
            assert proc.poll() is None

            command, env = self._cli("cluster", "down", "--state", str(state_path))
            down = subprocess.run(
                command, capture_output=True, text=True, env=env, timeout=60
            )
            assert down.returncode == 0, down.stderr
            assert "cluster down:" in down.stdout
            assert proc.wait(timeout=15) == 0
            assert [pid for pid in pids if self._pid_alive(pid)] == []
            assert not state_path.exists()
            again = subprocess.run(
                command, capture_output=True, text=True, env=env, timeout=60
            )
            assert again.returncode == 2
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            for pid in pids:
                if self._pid_alive(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_down_never_signals_a_stale_state_files_pid(self, tmp_path):
        from repro.cli import main

        with socket.socket() as probe:  # a port nothing listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        bystander = subprocess.Popen(["sleep", "60"])
        try:
            state_path = str(tmp_path / "stale.json")
            write_state(
                state_path,
                {
                    "coordinator": {
                        "url": f"http://127.0.0.1:{port}",
                        "pid": bystander.pid,
                    },
                    "workers": [],
                },
            )
            assert main(["cluster", "down", "--state", state_path]) == 0
            assert bystander.poll() is None
            with pytest.raises(FileNotFoundError):
                read_state(state_path)
        finally:
            bystander.kill()
            bystander.wait(timeout=10)
