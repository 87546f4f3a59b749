"""Spawn and tear down the servers under test, through the public CLI only.

``repro serve`` and ``repro cluster up`` run as subprocesses of the
benchmark; their listen address is read back from the startup banner.
A cluster always gets a ``--state`` file in the run's scratch
directory, is stopped with ``repro cluster down --state``, and every
worker pid the state file named is then checked to be gone: a worker
that outlives its cluster would leak CPU into the next measurement.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
import time
import urllib.request
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Tuple

_SERVE_BANNER = re.compile(r"repro plan server listening on (http://\S+)")
_CLUSTER_BANNER = re.compile(
    r"repro cluster coordinator listening on (http://\S+)"
)


class ServerError(RuntimeError):
    """A server did not start, answer, or stop as it must."""


def _cli_env(src: Path) -> Dict[str, str]:
    env = os.environ.copy()
    env["PYTHONPATH"] = str(src)
    env.pop("REPRO_WIRE", None)
    return env


def _pid_gone(pid: int) -> bool:
    """True when ``pid`` has exited (a zombie counts as exited)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return True
    return "\nState:\tZ" in status


def steal_jiffies() -> Tuple[int, int]:
    """(stolen, total) CPU time of this machine so far, from /proc/stat.

    On a virtual machine "steal" is time the hypervisor ran someone
    else on our virtual CPUs: a round measured while much was stolen
    measures the neighbours, not the program.
    """
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]
    values = [int(x) for x in fields]
    return values[7], sum(values)


def steal_share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise ServerError(f"no VmHWM for pid {pid}")


class Server:
    """One running ``repro serve`` or ``repro cluster up`` process.

    ``start`` returns once ``/healthz`` answers; ``url`` is the address
    clients talk to (the coordinator for a cluster).
    """

    def __init__(
        self,
        topology: str,
        src: Path,
        scratch: Path,
        *,
        cache: Optional[str] = None,
        trace: Optional[Path] = None,
    ) -> None:
        self.topology = topology
        self.src = src
        self.scratch = scratch
        self.trace = trace
        self.state_path = scratch / "cluster-state.json"
        args = ["serve", "--port", "0"]
        if topology == "cluster":
            args = ["cluster", "up", "-n", "2", "--port", "0",
                    "--state", str(self.state_path)]
        if cache is not None:
            args += ["--cache", cache]
        if trace is not None:
            args += ["--trace", str(trace)]
        self.argv = [sys.executable, "-m", "repro", *args]
        self.proc: Optional[subprocess.Popen] = None
        self.url: Optional[str] = None
        self._banner = threading.Event()
        self._lines: deque = deque(maxlen=40)
        self._reader: Optional[threading.Thread] = None

    # -- start ------------------------------------------------------------

    def start(self, timeout: float = 60.0) -> "Server":
        self.proc = subprocess.Popen(
            self.argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=_cli_env(self.src),
            cwd=str(self.scratch),
        )
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        if not self._banner.wait(timeout) or self.url is None:
            self.stop()
            raise ServerError(
                f"{' '.join(self.argv[2:])} printed no listen address; "
                "output:\n  " + "\n  ".join(self._lines)
            )
        deadline = time.monotonic() + timeout
        while True:
            try:
                with urllib.request.urlopen(f"{self.url}/healthz", timeout=5) as r:
                    if json.loads(r.read()).get("status") == "ok":
                        return self
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise ServerError(f"{self.url}/healthz never answered ok")
            time.sleep(0.01)

    def _drain(self) -> None:
        banner = _CLUSTER_BANNER if self.topology == "cluster" else _SERVE_BANNER
        assert self.proc is not None and self.proc.stdout is not None
        for raw in self.proc.stdout:
            line = raw.decode("utf-8", errors="replace").rstrip()
            self._lines.append(line)
            if self.url is None:
                match = banner.search(line)
                if match:
                    self.url = match.group(1)
                    self._banner.set()
        self._banner.set()

    # -- inspection -------------------------------------------------------

    def worker_pids(self) -> List[int]:
        if self.topology != "cluster":
            return []
        state = json.loads(self.state_path.read_text())
        return [int(w["pid"]) for w in state["workers"]]

    def worker_urls(self) -> List[str]:
        if self.topology != "cluster":
            return []
        state = json.loads(self.state_path.read_text())
        return [str(w["url"]) for w in state["workers"]]

    def peak_rss_mb(self) -> float:
        """Peak RSS summed over every server process (cluster: all three)."""
        assert self.proc is not None
        return sum(vm_hwm_mb(pid) for pid in [self.proc.pid, *self.worker_pids()])

    def trace_files(self) -> List[Path]:
        if self.trace is None:
            return []
        files = [self.trace]
        if self.topology == "cluster":
            files += sorted(self.trace.parent.glob(self.trace.name + ".w*"))
        return [f for f in files if f.exists()]

    # -- stop -------------------------------------------------------------

    def stop(self) -> List[int]:
        """Stop the server and wait for it; return any pids that survived.

        A cluster is stopped with ``repro cluster down --state``; the
        workers it recorded must be gone afterwards.  Survivors are
        killed so nothing leaks into the next phase, and returned so
        the caller can fail the run.
        """
        if self.proc is None:
            return []
        survivors: List[int] = []
        pids: List[int] = []
        if self.topology == "cluster" and self.state_path.exists():
            pids = self.worker_pids()
            subprocess.run(
                [sys.executable, "-m", "repro", "cluster", "down",
                 "--state", str(self.state_path)],
                env=_cli_env(self.src),
                cwd=str(self.scratch),
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                timeout=60,
                check=False,
            )
        else:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=15)
        deadline = time.monotonic() + 5
        for pid in pids:
            while not _pid_gone(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if not _pid_gone(pid):
                survivors.append(pid)
                try:
                    os.kill(pid, 9)
                except ProcessLookupError:
                    pass
        if self._reader is not None:
            self._reader.join(timeout=5)
        self.proc = None
        return survivors
