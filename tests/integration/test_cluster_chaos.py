"""Kill-a-worker chaos: SIGKILL one replica mid-``/plan_batch``.

The acceptance claim: a worker crashing *while its shard of a batch is
in flight* is invisible to the client — the coordinator reroutes the
dead replica's items to survivors and the completed sweep is
bit-identical (rtol=1e-12) to planning each request alone in process.

The batch is ``hom/k`` on a fresh random p=16 platform per request, so
each shard costs real wall-clock (~1 s per worker): the k-refinement
re-plans ``hom`` with one demand-driven schedule per platform, which
no batch kernel amortises, and the SIGKILL provably lands mid-batch,
not in a gap.  Planning purity is what makes the replayed items
identical.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.cluster.lifecycle import LocalCluster
from repro.core.pipeline import PlanRequest, plan_request
from repro.core.session import PlannerSession
from repro.obs import SpanRecorder, assemble_traces, read_spans, start_trace
from repro.platform.star import StarPlatform
from repro.service.client import ServiceClient

#: big enough that each of 3 workers holds ~1 s of planning
N_REQUESTS = 180
P = 16
KILL_AFTER_S = 0.5


def fresh_platform_requests(count, seed):
    """``hom/k`` requests, each on its own random p=16 platform."""
    rng = np.random.default_rng(seed)
    return [
        PlanRequest(
            platform=StarPlatform.from_speeds(rng.uniform(1.0, 100.0, size=P)),
            N=10_000.0 + i,
            strategy="hom/k",
        )
        for i in range(count)
    ]


@pytest.fixture(scope="module")
def heavy_requests():
    return fresh_platform_requests(N_REQUESTS, seed=20130521)


@pytest.fixture(scope="module")
def serial_results(heavy_requests):
    return [plan_request(req) for req in heavy_requests]


def test_sigkill_mid_batch_yields_bit_identical_sweep(
    heavy_requests, serial_results, tmp_path
):
    state_path = str(tmp_path / "chaos-cluster.json")
    with LocalCluster(
        n=3,
        cache=None,
        heartbeat_interval=0.25,
        state_path=state_path,
    ) as cluster:
        address = f"{cluster.coordinator.host}:{cluster.coordinator.port}"
        killed_at = {}

        def assassin():
            time.sleep(KILL_AFTER_S)
            cluster.kill_worker(0, signal.SIGKILL)
            killed_at["t"] = time.perf_counter()

        killer = threading.Thread(target=assassin, daemon=True)
        with PlannerSession(
            backend=f"remote:{address}", cache=False
        ) as remote:
            started = time.perf_counter()
            killer.start()
            results = remote.plan_batch(heavy_requests)
            finished = time.perf_counter()
        killer.join()

        # the kill landed while the batch was still in flight
        assert killed_at["t"] < finished, "batch finished before the kill"
        assert finished - started > KILL_AFTER_S

        # complete and bit-identical to the serial run
        assert len(results) == len(serial_results)
        for actual, expected in zip(results, serial_results):
            assert actual.request == expected.request
            np.testing.assert_allclose(
                actual.plan.finish_times,
                expected.plan.finish_times,
                rtol=1e-12,
            )
            np.testing.assert_allclose(
                actual.plan.makespan, expected.plan.makespan, rtol=1e-12
            )

        # the pool noticed: the killed replica is dead, with a reason
        snapshot = cluster.coordinator.pool.snapshot()
        dead = [w for w in snapshot["workers"] if not w["alive"]]
        assert len(dead) == 1
        assert dead[0]["url"] == cluster.workers[0].url

        # the survivors carried rerouted load
        survivors = [w for w in snapshot["workers"] if w["alive"]]
        assert sum(w["dispatched"] for w in survivors) >= N_REQUESTS


def test_rerouted_units_keep_their_trace_identity(tmp_path):
    """A worker lost under a batch shows up *inside* the request's trace.

    Worker 0 is SIGKILLed before the batch is sent, and the pool (its
    heartbeat 30 s away) still routes a shard to it, so that hop fails
    on connect.  The sampled ``/plan_batch``'s assembled tree must
    contain the failed dispatch hop (outcome ``unreachable``) *and* the
    reroute that replayed the shard on the survivor (a later-round
    ``ok`` hop), all under the original trace id and with no orphan
    span — a latency investigation of the slow request explains
    itself.  (A worker killed while it plans a shard may have written
    child spans whose parent it never closes; ``trace.complete`` could
    not hold for such a request.)
    """
    requests = fresh_platform_requests(80, seed=20130522)
    trace_path = str(tmp_path / "chaos-spans.jsonl")
    client_rec = SpanRecorder(service="client")
    ctx = start_trace()
    with LocalCluster(
        n=2,
        cache=None,
        heartbeat_interval=30.0,
        state_path=str(tmp_path / "chaos-trace-cluster.json"),
        trace=trace_path,
    ) as cluster:
        cluster.kill_worker(0, signal.SIGKILL)
        cluster.workers[0].proc.wait(timeout=10)
        client = ServiceClient(
            cluster.url, span_recorder=client_rec, timeout=60.0
        )
        results = client.plan_items(requests, trace=ctx)
        time.sleep(0.5)  # let coordinator + worker spans flush

        snapshot = cluster.coordinator.pool.snapshot()
        assert sum(1 for w in snapshot["workers"] if not w["alive"]) == 1

    assert len(results) == len(requests)
    span_files = [trace_path] + [
        f"{trace_path}.w{i}" for i in range(2)
        if os.path.exists(f"{trace_path}.w{i}")
    ]
    spans = client_rec.drain() + read_spans(span_files)
    # every span the whole cluster recorded belongs to the one sampled op
    assert {span.trace_id for span in spans} == {ctx.trace_id}

    (trace,) = assemble_traces(spans)
    dispatches = [s for s in trace.spans if s.name == "dispatch"]
    failed = [d for d in dispatches if d.meta["outcome"] == "unreachable"]
    assert failed, "the killed worker's hop left no span"
    reroutes = [
        d for d in dispatches
        if d.meta["round"] >= 1 and d.meta["outcome"] == "ok"
    ]
    assert reroutes, "no successful reroute hop recorded"
    # the replayed shard is at least as big as what the dead worker held
    assert sum(d.meta["items"] for d in reroutes) >= failed[0].meta["items"]
    # the surviving worker served both its own shard and the replay,
    # as server-side root spans chained under the coordinator's hops
    server_roots = [
        s for s in trace.spans
        if s.service == "server" and s.name == "server /plan_batch"
    ]
    assert len(server_roots) >= 2
    hop_ids = {d.span_id for d in dispatches}
    assert all(s.parent_id in hop_ids for s in server_roots)
    # the failed hop is part of the tree, not an orphan
    assert trace.complete


def test_cluster_without_chaos_matches_serial(
    heavy_requests, serial_results, tmp_path
):
    """Control: the same cluster undisturbed returns the same sweep."""
    with LocalCluster(
        n=3,
        cache=None,
        heartbeat_interval=0.25,
        state_path=str(tmp_path / "calm-cluster.json"),
    ) as cluster:
        address = f"{cluster.coordinator.host}:{cluster.coordinator.port}"
        with PlannerSession(
            backend=f"remote:{address}", cache=False
        ) as remote:
            results = remote.plan_batch(heavy_requests)
    for actual, expected in zip(results, serial_results):
        np.testing.assert_allclose(
            actual.plan.finish_times, expected.plan.finish_times, rtol=1e-12
        )
