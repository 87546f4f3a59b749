"""LocalCluster: subprocess workers, state file, kill/teardown."""

import json
import os
import signal
import subprocess
import sys
import time
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

    def test_startup_failure_reports_worker_output(self, tmp_path):
        cluster = LocalCluster(
            n=1,
            cache="no-such-store:x",
            state_path=str(tmp_path / "broken.json"),
            startup_timeout=20.0,
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
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True

    def test_sigterm_reaps_workers_and_removes_state(self, tmp_path):
        state_path = tmp_path / "cluster.json"
        src_dir = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src_dir))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "cluster", "up", "-n", "2",
             "--port", "0", "--state", str(state_path)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        pids = []
        try:
            deadline = time.monotonic() + 60
            while not state_path.exists():
                assert proc.poll() is None, "cluster up exited early"
                assert time.monotonic() < deadline, "no state file"
                time.sleep(0.05)
            pids = [int(w["pid"]) for w in read_state(str(state_path))["workers"]]
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
