"""Launch, monitor, and tear down a local cluster: ``repro cluster``.

:class:`LocalCluster` spawns N ordinary ``repro serve`` worker
processes on ephemeral ports, fronts them with an in-process
:class:`~repro.cluster.coordinator.ClusterCoordinator`, and knows how
to kill either side — the machinery behind ``repro cluster up``, the
chaos tests, and ``benchmarks/bench_cluster.py``.

Workers are real subprocesses (not threads) on purpose: killing one
with SIGKILL exercises the same mid-batch transport failure a crashed
remote replica produces, and N workers use N CPUs where the host has
them.  Each worker's port is read back from its startup banner
(``repro plan server listening on http://...``), so nothing races on
port allocation.

A JSON *state file* (``--state``, default ``~/.repro-cluster.json``)
records the coordinator URL and every PID, which is what lets
``repro cluster status`` and ``repro cluster down`` find a cluster
started by an earlier ``repro cluster up`` in another terminal.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.cluster.coordinator import ClusterCoordinator
from repro.obs import SpanRecorder

#: what `repro serve` prints once its socket is bound
_BANNER_RE = re.compile(r"repro plan server listening on (http://\S+)")


def default_state_path() -> str:
    """Where ``repro cluster`` records the running cluster by default."""
    return os.path.join(os.path.expanduser("~"), ".repro-cluster.json")


def write_state(path: str, state: Dict[str, Any]) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(state, indent=2, sort_keys=True) + "\n")


def read_state(path: str) -> Dict[str, Any]:
    """Load a cluster state file; ``FileNotFoundError`` if none exists."""
    return json.loads(Path(path).read_text())


def remove_state(path: str) -> None:
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - foreign pid, still alive
        return True
    return True


class _Worker:
    """One spawned ``repro serve`` replica: process + banner + log tail."""

    def __init__(self, index: int, proc: subprocess.Popen) -> None:
        self.index = index
        self.proc = proc
        self.url: Optional[str] = None
        self.lines: deque = deque(maxlen=50)
        self._banner_seen = threading.Event()
        self._reader = threading.Thread(
            target=self._drain, name=f"repro-worker-{index}-out", daemon=True
        )
        self._reader.start()

    def _drain(self) -> None:
        # drain for the process lifetime so the pipe never blocks it;
        # the first banner line carries the ephemeral port back
        stream = self.proc.stdout
        assert stream is not None
        for raw in stream:
            line = raw.decode("utf-8", errors="replace").rstrip()
            self.lines.append(line)
            if self.url is None:
                match = _BANNER_RE.search(line)
                if match:
                    self.url = match.group(1)
                    self._banner_seen.set()
        self._banner_seen.set()  # EOF: stop any waiter either way

    def wait_ready(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while not self._banner_seen.wait(timeout=0.1):
            if self.proc.poll() is not None:
                break
            if time.monotonic() > deadline:
                break
        if self.url is None:
            tail = "\n  ".join(self.lines) or "(no output)"
            raise RuntimeError(
                f"worker {self.index} (pid {self.proc.pid}) did not "
                f"report a listen address within {timeout:g}s; output:\n"
                f"  {tail}"
            )
        return self.url

    @property
    def pid(self) -> int:
        return self.proc.pid

    def alive(self) -> bool:
        return self.proc.poll() is None

    def release(self) -> None:
        """Join the drain thread and close the pipe (after the exit)."""
        self._reader.join(timeout=5)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class LocalCluster:
    """N local ``repro serve`` replicas behind one coordinator.

    ``cache`` is any store spec a worker accepts; a literal ``"{i}"``
    inside it is replaced by the worker index, so
    ``cache="sqlite:/tmp/plans-{i}.db"`` gives each replica its own
    durable store (the natural partner of ``dispatch="consistent-hash"``).
    ``worker_max_inflight`` forwards ``--max-inflight`` to each
    replica; ``max_inflight`` bounds the coordinator itself.

    Use as a context manager, or :meth:`start` / :meth:`close`.
    """

    def __init__(
        self,
        n: int = 2,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        backend: str = "serial",
        jobs: int | None = None,
        cache: "str | None" = "memory",
        vectorize: bool = True,
        wire: str = "auto",
        dispatch: str = "least-loaded",
        max_inflight: int | None = None,
        worker_max_inflight: int | None = None,
        heartbeat_interval: float = 0.5,
        max_missed: int = 2,
        max_reroutes: int = 3,
        state_path: str | None = None,
        startup_timeout: float = 30.0,
        access_log: Any = None,
        trace: str | None = None,
        span_recorder: SpanRecorder | None = None,
    ) -> None:
        if n < 1:
            raise ValueError(f"a cluster needs >= 1 worker, got {n}")
        self.n = int(n)
        self.host = host
        self.port = int(port)
        self.backend = backend
        self.jobs = jobs
        self.cache = cache
        self.vectorize = vectorize
        self.wire = wire
        self.dispatch = dispatch
        self.max_inflight = max_inflight
        self.worker_max_inflight = worker_max_inflight
        self.heartbeat_interval = float(heartbeat_interval)
        self.max_missed = int(max_missed)
        self.max_reroutes = int(max_reroutes)
        self.state_path = state_path
        self.startup_timeout = float(startup_timeout)
        #: optional AccessLog the coordinator writes front-door lines to
        self.access_log = access_log
        #: span-file base path: the coordinator appends JSONL here and
        #: worker i gets ``--trace <trace>.w<i>``, so one ``repro trace
        #: <trace>*`` glob assembles whole cluster-crossing traces
        self.trace = trace
        #: in-process recorder for the coordinator (tests; wins over a
        #: file recorder derived from ``trace``)
        self.span_recorder = span_recorder
        self.workers: List[_Worker] = []
        self.coordinator: Optional[ClusterCoordinator] = None
        self._closed = False

    # -- spawning ---------------------------------------------------------

    def _worker_command(self, index: int) -> List[str]:
        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            self.host,
            "--port",
            "0",
            "--backend",
            self.backend,
            "--wire",
            self.wire,
        ]
        if self.jobs is not None:
            command += ["--jobs", str(self.jobs)]
        if self.cache in (None, "off"):
            command.append("--no-cache")
        else:
            command += ["--cache", str(self.cache).replace("{i}", str(index))]
        if not self.vectorize:
            command.append("--no-vectorize")
        if self.worker_max_inflight is not None:
            command += ["--max-inflight", str(self.worker_max_inflight)]
        if self.trace:
            command += ["--trace", f"{self.trace}.w{index}"]
        return command

    def _spawn_env(self) -> Dict[str, str]:
        env = os.environ.copy()
        import repro

        src_dir = str(Path(repro.__file__).resolve().parents[1])
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            f"{src_dir}{os.pathsep}{existing}" if existing else src_dir
        )
        return env

    def start(self) -> "LocalCluster":
        if self.coordinator is not None:
            return self
        env = self._spawn_env()
        try:
            for index in range(self.n):
                proc = subprocess.Popen(
                    self._worker_command(index),
                    stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT,
                    env=env,
                )
                self.workers.append(_Worker(index, proc))
            urls = [
                worker.wait_ready(self.startup_timeout)
                for worker in self.workers
            ]
            recorder = self.span_recorder
            if recorder is None and self.trace:
                recorder = SpanRecorder.open(
                    self.trace, service="coordinator"
                )
            self.coordinator = ClusterCoordinator(
                host=self.host,
                port=self.port,
                workers=urls,
                dispatch=self.dispatch,
                max_inflight=self.max_inflight,
                heartbeat_interval=self.heartbeat_interval,
                max_missed=self.max_missed,
                max_reroutes=self.max_reroutes,
                wire_mode="safe" if self.wire == "safe" else "auto",
                access_log=self.access_log,
                span_recorder=recorder,
            )
            self.coordinator.start()
        except Exception:
            self.close()
            raise
        if self.state_path:
            write_state(self.state_path, self.state())
        return self

    # -- state ------------------------------------------------------------

    @property
    def url(self) -> str:
        if self.coordinator is None:
            raise RuntimeError("cluster not started")
        return self.coordinator.url

    def worker_urls(self) -> List[str]:
        return [w.url for w in self.workers if w.url]

    def state(self) -> Dict[str, Any]:
        """The JSON the state file records (`repro cluster status/down`)."""
        return {
            "coordinator": {"url": self.url, "pid": os.getpid()},
            "workers": [
                {"index": w.index, "url": w.url, "pid": w.pid}
                for w in self.workers
            ],
            "dispatch": self.dispatch,
            "created_at": time.time(),
        }

    # -- chaos ------------------------------------------------------------

    def kill_worker(self, index: int, sig: int = signal.SIGKILL) -> int:
        """Kill one replica (default SIGKILL — no goodbye, like a crash)."""
        worker = self.workers[index]
        pid = worker.pid
        try:
            os.kill(pid, sig)
        except ProcessLookupError:
            pass
        return pid

    # -- teardown ---------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self.coordinator is not None:
            self.coordinator.close()
        for worker in self.workers:
            if worker.alive():
                worker.proc.terminate()
        deadline = time.monotonic() + 5
        for worker in self.workers:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                worker.proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                worker.proc.kill()
                worker.proc.wait(timeout=5)
            worker.release()
        if self.state_path:
            remove_state(self.state_path)

    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# -- talking to an already-running cluster (status / down) ----------------


def _get_json(url: str, timeout: float = 5.0) -> dict:
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return json.loads(resp.read().decode("utf-8"))


def _post_json(url: str, timeout: float = 5.0) -> dict:
    request = urllib.request.Request(url, data=b"", method="POST")
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        return json.loads(resp.read().decode("utf-8"))


def cluster_status(coordinator_url: str, timeout: float = 5.0) -> dict:
    """GET ``/cluster/status`` from a running coordinator."""
    return _get_json(f"{coordinator_url.rstrip('/')}/cluster/status", timeout)


def cluster_metrics(coordinator_url: str, timeout: float = 5.0) -> dict:
    """GET the aggregated ``/metrics`` from a running coordinator."""
    return _get_json(f"{coordinator_url.rstrip('/')}/metrics", timeout)


def shutdown_cluster(
    state: Dict[str, Any], *, timeout: float = 10.0
) -> List[int]:
    """Stop the cluster a state file describes; return PIDs killed.

    Asks the coordinator to stop via ``/cluster/shutdown`` (best
    effort — it may already be gone), then escalates SIGTERM → SIGKILL
    on any worker PID still alive.  Safe to call twice.
    """
    coordinator = state.get("coordinator", {})
    url = coordinator.get("url")
    if url:
        try:
            _post_json(f"{str(url).rstrip('/')}/cluster/shutdown")
        except Exception:
            pass  # already down, or unreachable — the kills below decide
    pids = [int(w["pid"]) for w in state.get("workers", ())]
    for pid in pids:
        if _pid_alive(pid):
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
    deadline = time.monotonic() + timeout
    killed: List[int] = []
    for pid in pids:
        while _pid_alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        if _pid_alive(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        killed.append(pid)
    return killed
