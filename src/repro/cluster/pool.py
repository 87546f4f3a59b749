"""Worker membership and liveness for the cluster coordinator.

The :class:`WorkerPool` is the coordinator's single source of truth
about its replicas: which exist, which are alive, and how loaded each
one is.  Membership is static: the workers the coordinator was
constructed with, registered once at start-up.  Liveness is pulled: a
monitor thread probes every worker's ``/healthz`` each ``interval``
seconds; :attr:`WorkerPool.MAX_MISSED` (2) consecutive failures mark
it dead, one success revives it (a restarted replica rejoins with no
operator action).

Death is advisory, not terminal: a dead worker stays in the pool,
keeps being probed, and is simply excluded from dispatch until it
answers again.  The coordinator also calls :meth:`WorkerPool.mark_dead`
directly the moment a shipped batch hits a transport failure — waiting
out a heartbeat window mid-batch would stall clients for no reason.

Everything is guarded by one lock; methods never do I/O while holding
it (the monitor probes outside the lock), so pool state can be read
from request handler threads without hiccups.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


def normalize_worker_url(url: str) -> str:
    """The canonical form worker URLs are keyed by, everywhere.

    Registration, death marks and load accounting must all agree on
    one spelling — a coordinator passing ``http://h:1/`` where
    the worker registered as ``http://h:1`` would otherwise silently
    no-op ``mark_dead`` and leave a dead replica in dispatch.
    """
    return url.strip().rstrip("/")


@dataclass
class WorkerInfo:
    """One replica's membership record (mutated under the pool lock)."""

    id: int
    url: str
    registered_at: float
    last_seen: float
    alive: bool = True
    #: consecutive failed probes since the last success
    missed: int = 0
    #: items currently shipped to this worker
    inflight: int = 0
    #: items ever assigned (dispatch counter, for status/debugging)
    dispatched: int = 0
    #: transport failures observed against this worker
    failures: int = 0
    #: why the worker was last marked dead ("" while alive)
    reason: str = ""

    @property
    def load(self) -> int:
        return self.inflight

    def snapshot(self) -> Dict[str, object]:
        """JSON-able view for ``/cluster/status``."""
        return {
            "id": self.id,
            "url": self.url,
            "alive": self.alive,
            "missed": self.missed,
            "inflight": self.inflight,
            "dispatched": self.dispatched,
            "failures": self.failures,
            "reason": self.reason,
            "registered_at": round(self.registered_at, 3),
            "last_seen": round(self.last_seen, 3),
        }


@dataclass
class _Monitor:
    thread: threading.Thread
    stop: threading.Event = field(default_factory=threading.Event)


class WorkerPool:
    """Thread-safe registry of worker replicas with heartbeat liveness."""

    #: consecutive failed probes that mark a worker dead
    MAX_MISSED = 2

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._workers: Dict[str, WorkerInfo] = {}
        self._next_id = 1
        self._monitor: Optional[_Monitor] = None

    # -- membership ------------------------------------------------------

    def register(self, url: str) -> WorkerInfo:
        """Add a worker (idempotent by URL)."""
        url = normalize_worker_url(url)
        if not url.startswith(("http://", "https://")):
            raise ValueError(f"worker url must be http(s)://..., got {url!r}")
        now = time.time()
        with self._lock:
            info = self._workers.get(url)
            if info is None:
                info = WorkerInfo(
                    id=self._next_id,
                    url=url,
                    registered_at=now,
                    last_seen=now,
                )
                self._next_id += 1
                self._workers[url] = info
            return info

    def mark_dead(self, url: str, reason: str = "") -> None:
        """Exclude a worker from dispatch until a probe succeeds again."""
        with self._lock:
            info = self._workers.get(normalize_worker_url(url))
            if info is not None and info.alive:
                info.alive = False
                info.reason = reason or "marked dead"
                info.failures += 1

    # -- load accounting -------------------------------------------------

    def acquire(self, url: str, n: int = 1) -> None:
        """Record ``n`` items shipped to a worker."""
        with self._lock:
            info = self._workers.get(normalize_worker_url(url))
            if info is not None:
                info.inflight += n
                info.dispatched += n

    def release(self, url: str, n: int = 1) -> None:
        with self._lock:
            info = self._workers.get(normalize_worker_url(url))
            if info is not None:
                info.inflight = max(0, info.inflight - n)

    # -- views -----------------------------------------------------------

    def workers(self) -> List[WorkerInfo]:
        with self._lock:
            return list(self._workers.values())

    def alive(self) -> List[WorkerInfo]:
        with self._lock:
            return [w for w in self._workers.values() if w.alive]

    def urls(self) -> List[str]:
        with self._lock:
            return list(self._workers)

    def snapshot(self) -> Dict[str, object]:
        """JSON-able pool view for ``/cluster/status``."""
        with self._lock:
            workers = [w.snapshot() for w in self._workers.values()]
        return {
            "workers": workers,
            "alive": sum(1 for w in workers if w["alive"]),
            "total": len(workers),
            "max_missed": self.MAX_MISSED,
        }

    # -- heartbeat monitor -----------------------------------------------

    def start_monitor(
        self, probe: Callable[[str], bool], interval: float
    ) -> None:
        """Probe every worker each ``interval`` seconds on a daemon thread.

        ``probe(url)`` returns truthy when the worker answered its
        health check; it runs *outside* the pool lock, so a hung worker
        only delays the monitor, never request handling.  A worker
        failing :attr:`MAX_MISSED` consecutive probes is marked dead;
        any success revives it immediately.
        """
        if self._monitor is not None:
            return
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        monitor = _Monitor(
            thread=threading.Thread(
                target=self._monitor_loop,
                name="repro-cluster-heartbeat",
                daemon=True,
            )
        )
        self._monitor = monitor
        self._probe = probe
        self._interval = float(interval)
        monitor.thread.start()

    def _monitor_loop(self) -> None:
        monitor = self._monitor
        assert monitor is not None
        while not monitor.stop.wait(self._interval):
            for url in self.urls():
                try:
                    ok = bool(self._probe(url))
                except Exception:
                    ok = False
                with self._lock:
                    info = self._workers.get(url)
                    if info is None:
                        continue
                    if ok:
                        info.alive = True
                        info.missed = 0
                        info.reason = ""
                        info.last_seen = time.time()
                    else:
                        info.missed += 1
                        if info.missed >= self.MAX_MISSED and info.alive:
                            info.alive = False
                            info.reason = (
                                f"{info.missed} consecutive missed heartbeats"
                            )

    def stop_monitor(self) -> None:
        monitor = self._monitor
        if monitor is None:
            return
        monitor.stop.set()
        monitor.thread.join(timeout=5)
        self._monitor = None
