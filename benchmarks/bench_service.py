"""Benchmarks for the planning service layer (server + remote clients).

Two questions the service tentpole must answer with numbers:

* **remote batch throughput** — how many requests/second does a remote
  session push through a plan server, against the in-process serial
  baseline?  (The wire adds latency; the server's store amortises
  it — the point is that the overhead is bounded and the results
  identical.)
* **warm shared-cache speedup** — two *separate client processes*
  planning the same batch against one server: the first fills the
  shared store, the second must be served from it and finish faster
  having planned nothing.

A third question joined with the binary wire:

* **wire profile throughput** — the same batch shipped as scalar
  requests and as one vector group over binary-v2 against one server;
  the vector leg must beat the *committed* pickle-era baseline in
  ``BENCH_service.json`` by ≥5× (the acceptance bar for the zero-copy
  wire + batched kernels).

All emit ``BENCH {...}`` JSON lines for CI trend tracking, like the
batch-planning and plan-store benchmarks; ``scripts/check_bench.py``
diffs them against the committed ``BENCH_service.json`` trendline.
"""

import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.pipeline import PlanRequest
from repro.core.session import PlannerSession
from repro.platform.star import StarPlatform
from repro.service.server import PlanServer

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")
BENCH_BASELINE = Path(__file__).resolve().parents[1] / "BENCH_service.json"


def _pickle_era_baseline() -> float:
    """The committed pickle-v1 remote throughput (req/s) this PR must beat."""
    trend = json.loads(BENCH_BASELINE.read_text())
    history = trend["benchmarks"]["service_remote_batch_throughput"]["history"]
    return float(history[0]["remote_req_per_s"])


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _requests(count=48, p=48, seed=11):
    """Distinct heterogeneous instances, heavy enough to time planning."""
    rng = np.random.default_rng(seed)
    return [
        PlanRequest(
            platform=StarPlatform.from_speeds(
                rng.uniform(1.0, 10.0, size=p).tolist()
            ),
            N=2000.0,
            strategy="het",
        )
        for _ in range(count)
    ]


def test_remote_batch_throughput():
    """Remote planning must return the serial baseline's plans exactly;
    report both paths' requests/second."""
    requests = _requests()

    with PlannerSession(cache=False) as local:
        baseline = local.plan_batch(requests)
        serial_s = min(
            _timed(lambda: local.plan_batch(requests)) for _ in range(3)
        )

    with PlanServer(port=0, cache=False) as server:
        with PlannerSession(
            backend=f"remote:{server.host}:{server.port}", cache=False
        ) as remote:
            shipped = remote.plan_batch(requests)
            remote_s = min(
                _timed(lambda: remote.plan_batch(requests)) for _ in range(3)
            )

    for a, b in zip(baseline, shipped):
        assert np.isclose(a.comm_volume, b.comm_volume, rtol=1e-12)

    print()
    print(
        "BENCH "
        + json.dumps(
            {
                "name": "service_remote_batch_throughput",
                "requests": len(requests),
                "serial_s": round(serial_s, 4),
                "remote_s": round(remote_s, 4),
                "serial_req_per_s": round(len(requests) / serial_s, 1),
                "remote_req_per_s": round(len(requests) / remote_s, 1),
                "overhead_x": round(remote_s / serial_s, 2),
            }
        )
    )
    # the wire may cost, but not catastrophically: same order of magnitude
    assert remote_s < serial_s * 10, (
        f"remote planning {remote_s / serial_s:.1f}x slower than serial"
    )


def test_wire_profile_throughput():
    """The raw-speed acceptance bar for the binary wire + batched kernels.

    Leg A ships the 48 requests as individual scalar items; leg B ships
    them as one vector group.  Both travel over binary-v2, the only wire
    format, must return identical plans, and leg B's throughput must
    clear 5x the pickle-v1-era remote throughput committed in
    ``BENCH_service.json`` — the 281 req/s the service managed before
    the binary wire (the gain compounds the zero-copy wire, the batched
    partition kernels, and lazy partitions, so a same-run A/B alone
    cannot reproduce the old code's cost).
    """
    from repro.core.vectorize import VectorGroup
    from repro.service.client import ServiceClient

    requests = _requests()
    group = VectorGroup(strategy="het", requests=tuple(requests))
    with PlanServer(port=0, cache=False) as server, ServiceClient(
        server.url, timeout=60.0
    ) as binary:
        scalar_results = binary.plan_items(requests)
        scalar_s = min(
            _timed(lambda: binary.plan_items(requests)) for _ in range(3)
        )
        (v2_results,) = binary.plan_items([group])
        v2_s = min(
            _timed(lambda: binary.plan_items([group])) for _ in range(3)
        )

    for a, b in zip(scalar_results, v2_results):
        assert a.request == b.request
        assert np.isclose(a.comm_volume, b.comm_volume, rtol=1e-12)
        np.testing.assert_array_equal(
            a.plan.finish_times, b.plan.finish_times
        )

    committed = _pickle_era_baseline()
    v2_req_per_s = len(requests) / v2_s
    gain = v2_req_per_s / committed
    print()
    print(
        "BENCH "
        + json.dumps(
            {
                "name": "service_wire_profile_throughput",
                "requests": len(requests),
                "scalar_s": round(scalar_s, 4),
                "binary_batched_s": round(v2_s, 4),
                "scalar_req_per_s": round(len(requests) / scalar_s, 1),
                "v2_req_per_s": round(v2_req_per_s, 1),
                "v2_vs_committed_pickle_x": round(gain, 2),
            }
        )
    )
    assert gain >= 5.0, (
        f"binary-v2 batched throughput {v2_req_per_s:.0f} req/s is only "
        f"{gain:.1f}x the committed pickle-v1 baseline ({committed:.0f} "
        "req/s); the raw-speed pass requires 5x"
    )


_CLIENT_SNIPPET = """\
import json, sys, time
from repro.core.pipeline import PlanRequest
from repro.core.session import PlannerSession
import numpy as np
from repro.platform.star import StarPlatform

address = sys.argv[1]
rng = np.random.default_rng(11)
requests = [
    PlanRequest(
        platform=StarPlatform.from_speeds(rng.uniform(1.0, 10.0, size=48).tolist()),
        N=2000.0,
        strategy="het",
    )
    for _ in range(48)
]
session = PlannerSession(backend=f"remote:{address}", cache=False)
start = time.perf_counter()
results = session.plan_batch(requests)
elapsed = time.perf_counter() - start
cached = sum(1 for r in results if r.cached)
session.close()
print(json.dumps({"elapsed_s": elapsed, "cached": cached, "n": len(results)}))
"""


def _run_client(address: str) -> dict:
    # the server runs in this (pytest) process: collect its garbage now,
    # or a full collection of the test session's heap (~40 ms on a
    # 2-vCPU host) can land inside the one request a client times
    gc.collect()
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _CLIENT_SNIPPET, address],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=300,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_warm_shared_cache_across_processes():
    """Client process 2, planning through the server, must be served
    from the store client process 1 warmed — zero planning, faster
    wall-clock."""
    with PlanServer(port=0, cache="memory") as server:
        address = f"{server.host}:{server.port}"
        cold = _run_client(address)
        warm = _run_client(address)

    assert cold["cached"] == 0 and cold["n"] == 48
    assert warm["cached"] == 48, f"warm run replanned: {warm}"

    print()
    print(
        "BENCH "
        + json.dumps(
            {
                "name": "service_warm_shared_cache",
                "requests": cold["n"],
                "cold_s": round(cold["elapsed_s"], 4),
                "warm_s": round(warm["elapsed_s"], 4),
                "speedup": round(cold["elapsed_s"] / warm["elapsed_s"], 2),
            }
        )
    )
    assert warm["elapsed_s"] < cold["elapsed_s"], (
        "shared-store hits were slower than planning"
    )
