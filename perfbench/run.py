#!/usr/bin/env python3
"""Run one benchmark workload against a real plan server and print metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload hot-memory --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:
set-up time, slot-timed p50s at the workload's fixed ``low`` and
``high`` rates, the capacity under its p99 SLO, closed-loop plans per
second, and the servers' peak RSS.  ``--trace 1`` measures the
per-layer metrics instead (see README.md).  Every run passes the
correctness gate in ``gate.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records provenance (cpu count, versions, commit, seed, stream
fingerprints) and the raw details behind each number.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH_ROOT = ROOT / ".perfbench_tmp"

if __name__ == "__main__" and not (SRC / "repro" / "__init__.py").is_file():
    # the benchmark measures this checkout's sources and nothing else
    print(f"perfbench: no repro sources at {SRC}; run from the root of a "
          "repository checkout", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

import layers  # noqa: E402
from driver import (  # noqa: E402
    ABORT_SLO_MULTIPLE,
    THREADS,
    PhaseResult,
    closed_loop,
    make_client,
    open_loop,
)
from gate import endpoint_counts, replan_mismatches, unreconciled  # noqa: E402
from servers import Server, steal_jiffies, steal_share  # noqa: E402
from workloads import (  # noqa: E402
    LADDER_RUNGS,
    PHASE_CLOSED,
    PHASE_HIGH,
    PHASE_LOW,
    PHASE_PROBE,
    PHASE_WARMUP,
    WORKLOADS,
    Inputs,
    Op,
    stream_fingerprint,
)

#: served ops replanned locally per sampled phase
SAMPLE_PER_PHASE = 12
#: rounds, each on its own server, the end-to-end metrics rest on
ROUNDS = 3
#: ... counted first if the hypervisor stole at most this share of the
#: machine's CPU time meanwhile: on a 2-vCPU host, rounds above it ran
#: 20-70 % slower while those below agreed with each other
MAX_STEAL = 0.08
#: ... out of at most this many rounds per run
MAX_ROUNDS = 4


@dataclass
class Round:
    """One round's measurements, and the CPU share the hypervisor stole."""

    setup_s: float
    low: PhaseResult
    high: PhaseResult
    closed: float
    steal: float


#: unit of every metric either kind of run reports
UNITS = {
    "setup_s": "s",
    "p50_ms.low": "ms",
    "p50_ms.high": "ms",
    "capacity_rps": "ops/s",
    "plans_per_s": "plans/s",
    "server_rss_mb": "MB",
    **layers.UNITS,
}


def provenance(workload: str, seed: int) -> Dict[str, Any]:
    """What a result must carry to be compared with another."""
    try:
        # the ceiling keeps git from answering for an enclosing repository
        commit: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "workload": workload,
        "seed": seed,
    }


class Run:
    """One workload run: servers, load phases, gate and metrics."""

    def __init__(self, workload_name: str, seed: int, seconds: float) -> None:
        self.workload = WORKLOADS[workload_name]
        self.seed = seed
        self.seconds = float(seconds)
        self.inputs = Inputs(self.workload, seed)
        SCRATCH_ROOT.mkdir(exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(dir=SCRATCH_ROOT))
        #: client attempts per endpoint since the last /metrics snapshot
        self.sent: Dict[str, int] = {}
        self.unreconciled = 0
        self.attempted = 0
        self.failed = 0
        self.samples: List[Tuple[Op, Any]] = []
        self.leaked: List[int] = []
        #: peak RSS of every server this run started, MB
        self.rss: List[float] = []
        self.gate_ok = False
        #: set by the capacity search
        self.capacity_rps = 0.0
        self.bracketed = True
        self.fingerprints: Dict[str, str] = {}
        self.details: Dict[str, Any] = {}
        self.rng = random.Random(seed)

    # -- servers ----------------------------------------------------------

    def start_server(self, tag: str, *, trace: bool = False) -> Tuple[Server, float]:
        """Spawn, wait for /healthz and pre-plan; return (server, seconds)."""
        began = time.perf_counter()
        scratch = self.scratch / tag
        scratch.mkdir()
        cache = (
            f"sqlite:{scratch / 'plans.db'}"
            if self.workload.name == "cold-sqlite"
            else None
        )
        server = Server(
            self.workload.topology,
            SRC,
            scratch,
            cache=cache,
            trace=scratch / "spans.jsonl" if trace else None,
        ).start()
        try:
            client = make_client(server.url)
            for op in self.inputs.setup_ops():
                client.plan_items(op.payload)
        except Exception:
            self.stop_server(server)
            raise
        return server, time.perf_counter() - began

    def stop_server(self, server: Server) -> None:
        self.leaked += server.stop()

    # -- load -------------------------------------------------------------

    def begin_counts(self, server: Server) -> Dict[str, int]:
        """Snapshot the server's counters; client counting restarts."""
        self.sent = {}
        return endpoint_counts(server.url, self.workload.topology)

    def end_counts(self, server: Server, before: Dict[str, int]) -> None:
        """Reconcile client attempts since ``begin_counts`` exactly."""
        after = endpoint_counts(server.url, self.workload.topology)
        off = unreconciled(before, after, self.sent)
        self.unreconciled += off
        self.details.setdefault("reconcile", []).append({
            "client_sent": dict(self.sent),
            "server_delta": {k: after[k] - before[k] for k in after},
            "unreconciled": off,
        })

    def _count(self, ops: List[Op], indices) -> None:
        for i in indices:
            endpoint = ops[i].endpoint
            self.sent[endpoint] = self.sent.get(endpoint, 0) + 1

    def open_phase(
        self,
        clients: List[Any],
        phase: int,
        rate: float,
        seconds: float,
        *,
        ops: Optional[List[Op]] = None,
        sample: bool = False,
        abort_after_s: Optional[float] = None,
    ) -> PhaseResult:
        """One open-loop phase on its own seeded stream, fully accounted.

        ``ops`` replays a given stream instead of drawing the phase's.
        """
        if ops is None:
            ops = self.inputs.ops(phase, max(10, int(round(rate * seconds))))
        self.fingerprints[str(phase)] = stream_fingerprint(ops)
        keep = frozenset(
            self.rng.sample(range(len(ops)), min(SAMPLE_PER_PHASE, len(ops)))
            if sample else ()
        )
        result = open_loop(
            clients, ops, rate, keep=keep, abort_after_s=abort_after_s
        )
        self._count(ops, (r.index for r in result.records))
        self.attempted += result.attempted
        self.failed += result.failed
        self.samples += [(ops[i], out) for i, out in result.kept.items()]
        return result

    def closed_phase(self, clients: List[Any], phase: int, seconds: float) -> float:
        """Closed loop for ``seconds``; returns plans per second."""
        budget = int(6 * self.workload.high_rps * seconds) + 50
        ops = self.inputs.ops(phase, budget)
        plans_per_s, attempted, failed = closed_loop(clients, ops, seconds)
        self.fingerprints[str(phase)] = stream_fingerprint(ops[:attempted])
        self._count(ops, range(attempted))
        self.attempted += attempted
        self.failed += failed
        return plans_per_s

    def capacity(self, clients: List[Any], seconds: float) -> None:
        """Highest passing rung of the fixed ladder, bracketed by a failure.

        Starts at the rung nearest the ``high`` rate and steps four
        rungs up until a rung fails (or, from a failing start, eight
        down until one passes), then bisects the gap.  Sets
        ``capacity_rps`` to the achieved rate of the highest passing
        probe; an unbracketed search fails the gate.
        """
        w = self.workload
        probe_s = seconds / 7.0
        slo = w.slo_p99_ms
        probes: Dict[int, PhaseResult] = {}
        # a slow host must not stretch the run past its time limit
        deadline = time.perf_counter() + 1.6 * seconds

        def passes(k: int) -> bool:
            # a rung fails only when two probes on it fail: one burst of
            # host noise must not end the search below the capacity
            if k not in probes:
                for retry in (0, 1):
                    probes[k] = self.open_phase(
                        clients, PHASE_PROBE + k + 1000 * retry,
                        w.rung_rps(k), probe_s,
                        abort_after_s=ABORT_SLO_MULTIPLE * slo / 1e3,
                    )
                    time.sleep(0.05)
                    if probes[k].passes(slo):
                        break
            return probes[k].passes(slo)

        def in_time() -> bool:
            return time.perf_counter() < deadline

        top = LADDER_RUNGS - 1
        lo: Optional[int] = None
        hi: Optional[int] = None
        k = w.start_rung()
        if passes(k):
            lo = k
            while hi is None and lo < top and in_time():
                nxt = min(lo + 4, top)
                if passes(nxt):
                    lo = nxt
                else:
                    hi = nxt
        else:
            hi = k
            while lo is None and hi > 0 and in_time():
                nxt = max(hi - 8, 0)
                if passes(nxt):
                    lo = nxt
                else:
                    hi = nxt
        while lo is not None and hi is not None and hi - lo > 1 and in_time():
            mid = (lo + hi) // 2
            if passes(mid):
                lo = mid
            else:
                hi = mid
        self.bracketed = lo is not None and hi is not None
        self.details["ladder"] = {
            f"{w.rung_rps(k):.2f}": probes[k].summary(slo) for k in sorted(probes)
        }
        best = lo if lo is not None else min(probes)
        self.capacity_rps = w.rung_rps(best) * probes[best].achieved_ratio()

    # -- the two kinds of run ---------------------------------------------

    def round(self, r: int, share: Dict[str, float]) -> Round:
        """One round on a fresh server: warm-up, low, high, closed loop."""
        w = self.workload
        server, took = self.start_server(f"round{r}")
        try:
            clients = [make_client(server.url) for _ in range(THREADS)]
            before = self.begin_counts(server)
            self.closed_phase(clients, PHASE_WARMUP + 10 * r, share["warmup"])
            stolen = steal_jiffies()
            low = self.open_phase(
                clients, PHASE_LOW + 10 * r, w.low_rps, share["low"], sample=True
            )
            high = self.open_phase(
                clients, PHASE_HIGH + 10 * r, w.high_rps, share["high"], sample=True
            )
            closed = self.closed_phase(clients, PHASE_CLOSED + 10 * r, share["closed"])
            steal = steal_share(stolen, steal_jiffies())
            self.end_counts(server, before)
            self.rss.append(server.peak_rss_mb())
        finally:
            self.stop_server(server)
        return Round(took, low, high, closed, steal)

    def ladder(self, attempt: int, seconds: float) -> Tuple[float, float]:
        """The capacity search on a fresh server; (set-up s, steal share)."""
        server, took = self.start_server(f"ladder{attempt}")
        try:
            clients = [make_client(server.url) for _ in range(THREADS)]
            before = self.begin_counts(server)
            self.closed_phase(clients, PHASE_WARMUP + 10 * MAX_ROUNDS, 1.0)
            stolen = steal_jiffies()
            self.capacity(clients, seconds)
            steal = steal_share(stolen, steal_jiffies())
            self.end_counts(server, before)
            self.rss.append(server.peak_rss_mb())
        finally:
            self.stop_server(server)
        return took, steal

    def end_to_end(self) -> Dict[str, float]:
        """The ``--trace 0`` run: every end-to-end metric, tracing off.

        Rounds of the warm-up, low, high and closed-loop phases run one
        after another, each on a freshly set-up server, until
        ``ROUNDS`` of them saw the hypervisor steal at most
        ``MAX_STEAL`` of the machine's CPU time, or ``MAX_ROUNDS`` ran;
        the ``ROUNDS`` least-stolen rounds count.  p50s pool their
        samples; the closed-loop rate is the median over them.  Their
        p95 and p99 go to the details only: over ten runs they spread
        past any bound the benchmark may set (see README.md).
        The capacity search runs on a server of its own, once more if
        it was stolen from and time allows.  Set-up time is the median
        over every server set up.
        """
        w = self.workload
        began = time.perf_counter()
        share = {k: v * self.seconds / ROUNDS for k, v in w.shares.items()}
        rounds: List[Round] = []
        while (
            sum(x.steal <= MAX_STEAL for x in rounds) < ROUNDS
            and len(rounds) < MAX_ROUNDS
        ):
            rounds.append(self.round(len(rounds), share))
        counted = sorted(rounds, key=lambda x: x.steal)[:ROUNDS]
        setups = [x.setup_s for x in rounds]
        ladder_s = w.shares["ladder"] * self.seconds
        ladders: List[Tuple[float, Dict[str, Any], float, bool]] = []
        for attempt in range(2):
            took, steal = self.ladder(attempt, ladder_s)
            setups.append(took)
            ladders.append((
                steal, self.details.pop("ladder"), self.capacity_rps,
                self.bracketed,
            ))
            spent = time.perf_counter() - began
            if steal <= MAX_STEAL or spent + ladder_s > 1.6 * self.seconds:
                break
        steal, probes, capacity, self.bracketed = min(ladders, key=lambda x: x[0])
        low = PhaseResult.pool([x.low for x in counted])
        high = PhaseResult.pool([x.high for x in counted])
        self.details.update(
            setup_s=setups,
            tails_ms={
                f"p{q}.{name}": phase.p(q / 100)
                for q in (95, 99)
                for name, phase in (("low", low), ("high", high))
            },
            ladder={"steal": steal, "probes": probes,
                    "steal_per_attempt": [x[0] for x in ladders]},
            rounds=[
                {
                    "counted": x in counted,
                    "steal": x.steal,
                    "plans_per_s": x.closed,
                    "low": x.low.summary(w.slo_p99_ms),
                    "high": x.high.summary(w.slo_p99_ms),
                }
                for x in rounds
            ],
        )
        self.gate()
        return {
            "setup_s": statistics.median(setups),
            "p50_ms.low": low.p(0.50),
            "p50_ms.high": high.p(0.50),
            "capacity_rps": capacity,
            "plans_per_s": statistics.median(x.closed for x in counted),
            "server_rss_mb": max(self.rss),
        }

    def gate(self) -> None:
        """Replan the sample; wrong or unreconciled ops count as failed."""
        mismatches = replan_mismatches(self.samples)
        self.failed += mismatches + self.unreconciled
        self.details["gate"] = {
            "replanned_ops": len(self.samples),
            "mismatches": mismatches,
            "unreconciled": self.unreconciled,
            "leaked_pids": list(self.leaked),
        }
        self.details["gate"]["bracketed"] = self.bracketed
        self.gate_ok = (
            mismatches == 0
            and self.unreconciled == 0
            and not self.leaked
            and self.bracketed
        )

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its servers (the finally blocks run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # a sleeping sender must get the interpreter back promptly when its
    # slot is due, not after the other sender's 5 ms switch interval
    sys.setswitchinterval(0.0005)
    run = Run(args.workload, args.seed, args.seconds)
    try:
        metrics = layers.measure(run) if args.trace else run.end_to_end()
    finally:
        run.close()
    finite = all(math.isfinite(v) for v in metrics.values())
    positive = args.trace or all(v > 0 for v in metrics.values())
    print(json.dumps({
        "provenance": {**provenance(args.workload, args.seed),
                       "fingerprints": run.fingerprints},
        "details": run.details,
    }, default=str))
    print(json.dumps({
        "correct": bool(run.gate_ok and finite and positive),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
