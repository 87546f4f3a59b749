"""Slot-timed open-loop and closed-loop load from one process.

At most ``nproc`` threads send, each through its own
``ServiceClient`` (one connection at a time per thread).  In the open
loop op ``i`` is due at ``t0 + i / rate`` and its latency runs from
that slot, never from its send: when both threads are busy, the wait
for a free one counts, as a user arriving on schedule would see it.

How late the generator itself ran is measured apart from that wait:
``lag`` is the send time minus the later of the slot and the moment
the thread was free to take the op.  A probe whose generator fell
behind (lag) or could not issue ops at the offered rate (achieved
ratio) is *invalid*, and an invalid probe never passes.
"""

from __future__ import annotations

import gc
import itertools
import math
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.service.client import ServiceClient

from gate import check_shape
from workloads import Op

#: load threads, one connection each: at most nproc, and at most two
THREADS = max(1, min(2, os.cpu_count() or 1))
#: a probe is valid only if it issued ops at >= this share of the rate
MIN_ACHIEVED = 0.95
#: ... and its generator lag p99 stayed within this share of the SLO
MAX_LAG_SHARE_OF_SLO = 0.2
#: stop a probe early once an op completes this many SLOs after its slot
ABORT_SLO_MULTIPLE = 4.0


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Upper-bound quantile: the smallest sample at or above ``q``."""
    if not sorted_values:
        return math.nan
    rank = math.ceil(q * len(sorted_values))
    return sorted_values[max(0, min(len(sorted_values) - 1, rank - 1))]


@dataclass
class Record:
    index: int
    slot: float
    sent: float
    done: float
    lag: float
    ok: bool


@dataclass
class PhaseResult:
    """What one phase measured, with the validity gauges."""

    rate: float
    offered: int
    records: List[Record]
    aborted: bool = False
    #: served payloads kept for the correctness sample, by op index
    kept: Dict[int, Any] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r.ok)

    def latencies_ms(self) -> List[float]:
        """Slot-relative latencies; a failed op counts as infinitely late."""
        return sorted(
            (r.done - r.slot) * 1e3 if r.ok else math.inf
            for r in self.records
        )

    def p(self, q: float) -> float:
        return quantile(self.latencies_ms(), q)

    def lag_p99_ms(self) -> float:
        return quantile(sorted(r.lag * 1e3 for r in self.records), 0.99)

    def achieved_ratio(self) -> float:
        """Rate ops were actually issued at, over the offered rate.

        Measured from the first slot to the last send, so a backlog
        that delays sends (both threads busy) shows as a ratio below 1.
        """
        if self.attempted < 2:
            return 1.0
        first_slot = min(r.slot for r in self.records)
        span = max(r.sent for r in self.records) - first_slot
        return (self.attempted - 1) / span / self.rate if span > 0 else 1.0

    def valid(self, slo_ms: float) -> bool:
        return (
            not self.aborted
            and self.achieved_ratio() >= MIN_ACHIEVED
            and self.lag_p99_ms() <= MAX_LAG_SHARE_OF_SLO * slo_ms
        )

    def passes(self, slo_ms: float, error_budget: float = 0.01) -> bool:
        return (
            self.valid(slo_ms)
            and self.p(0.99) <= slo_ms
            and self.failed <= error_budget * self.attempted
        )

    @classmethod
    def pool(cls, phases: Sequence["PhaseResult"]) -> "PhaseResult":
        """One result holding every record of ``phases`` (same rate)."""
        return cls(
            rate=phases[0].rate,
            offered=sum(p.offered for p in phases),
            records=[r for p in phases for r in p.records],
            aborted=any(p.aborted for p in phases),
        )

    def summary(self, slo_ms: float) -> Dict[str, Any]:
        return {
            "rate": self.rate,
            "attempted": self.attempted,
            "failed": self.failed,
            "aborted": self.aborted,
            "p50_ms": self.p(0.50),
            "p99_ms": self.p(0.99),
            "lag_p99_ms": self.lag_p99_ms(),
            "achieved_ratio": self.achieved_ratio(),
            "valid": self.valid(slo_ms),
            "passes": self.passes(slo_ms),
        }


def make_client(url: str, **kwargs: Any) -> ServiceClient:
    """A binary-v2 client that never retries, already negotiated.

    Without retries every failure is counted exactly once, and the
    ``/healthz`` handshake happens here rather than inside a timed op.
    """
    client = ServiceClient(
        url, timeout=60.0, retries=0, wire_profile="binary-v2", **kwargs
    )
    client.wire_profile()
    return client


def execute(client: ServiceClient, op: Op) -> Any:
    """Send one op through the public client; return the served payload."""
    if op.kind == "plan":
        return client.plan(op.payload)
    if op.kind == "plan_batch":
        return client.plan_items(op.payload)
    return client.cache_get(op.payload)


def open_loop(
    clients: Sequence[Any],
    ops: Sequence[Op],
    rate: float,
    *,
    keep: frozenset = frozenset(),
    abort_after_s: Optional[float] = None,
) -> PhaseResult:
    """Send ``ops`` on the ``t0 + i / rate`` schedule and time each op."""
    n = len(ops)
    records: List[Optional[Record]] = [None] * n
    kept: Dict[int, Any] = {}
    counter = itertools.count()
    stop = threading.Event()
    t0 = time.perf_counter() + 0.02

    def sender(client: Any) -> None:
        while not stop.is_set():
            i = next(counter)
            if i >= n:
                return
            slot = t0 + i / rate
            free = time.perf_counter()
            if free < slot:
                time.sleep(slot - free)
            sent = time.perf_counter()
            ok = True
            try:
                out = execute(client, ops[i])
                ok = check_shape(ops[i], out)
            except Exception:
                out, ok = None, False
            done = time.perf_counter()
            records[i] = Record(i, slot, sent, done, sent - max(slot, free), ok)
            if ok and i in keep:
                kept[i] = out
            if abort_after_s is not None and done - slot > abort_after_s:
                stop.set()

    _run_threads(sender, clients)
    done_records = [r for r in records if r is not None]
    return PhaseResult(
        rate=rate,
        offered=n,
        records=done_records,
        aborted=len(done_records) < n,
        kept=kept,
    )


def closed_loop(
    clients: Sequence[Any],
    ops: Sequence[Op],
    seconds: float,
) -> tuple:
    """Each thread sends its next op as soon as the last returns.

    Returns ``(plans_per_s, attempted, failed)``; the attempted ops
    are exactly ``ops[:attempted]``.  Raises if ``ops`` run out before
    ``seconds`` pass, which would silently shorten the measurement.
    """
    counter = itertools.count()
    lock = threading.Lock()
    totals = {"plans": 0, "attempted": 0, "failed": 0, "last": 0.0}
    start = time.perf_counter()
    deadline = start + seconds

    def sender(client: Any) -> None:
        while time.perf_counter() < deadline:
            i = next(counter)
            if i >= len(ops):
                return
            op = ops[i]
            try:
                ok = check_shape(op, execute(client, op))
            except Exception:
                ok = False
            done = time.perf_counter()
            with lock:
                totals["attempted"] += 1
                totals["last"] = max(totals["last"], done)
                if ok:
                    totals["plans"] += op.weight
                else:
                    totals["failed"] += 1

    _run_threads(sender, clients)
    if next(counter) >= len(ops):
        raise RuntimeError("closed loop ran out of ops; generate more")
    elapsed = totals["last"] - start
    return (
        totals["plans"] / elapsed if elapsed > 0 else 0.0,
        totals["attempted"],
        totals["failed"],
    )


def _run_threads(target: Callable[[Any], None], clients: Sequence[Any]) -> None:
    """Run one sender per client with the cycle collector held off.

    A full collection over the benchmark's own op lists would pause
    both senders at once and show up as server latency, so garbage
    waits until the phase ends.
    """
    gc.collect()
    gc.disable()
    try:
        _join_all(target, clients)
    finally:
        gc.enable()


def _join_all(target: Callable[[Any], None], clients: Sequence[Any]) -> None:
    threads = [
        threading.Thread(target=target, args=(client,), daemon=True)
        for client in clients
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170)
        if thread.is_alive():
            raise RuntimeError("a load thread did not finish in time")
