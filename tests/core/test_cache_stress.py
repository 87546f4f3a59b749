"""Concurrency stress tests for the shared sqlite plan store.

The durable store's promise (see :class:`SQLitePlanCache`): many
threads *and* many processes may hammer one cache file with
interleaved ``get``/``put`` traffic on overlapping keys and observe

* no corruption — every read returns a complete, correct value;
* no lost writes — every key ever put is present afterwards;
* consistent statistics — ``hits + misses`` equals the exact number
  of ``get`` calls issued, across all writers.

The synthetic entries are real :class:`PlanResult` objects (stored as
binary-v2 envelopes), keyed by index so a torn or misrouted row is
detectable by content.  The last two tests drive a shared store
through real planners: sessions on every execution backend, and
concurrent clients of one plan server whose store is a sqlite file.
"""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np

from repro.blocks.metrics import StrategyResult
from repro.core.cache import SQLitePlanCache
from repro.core.pipeline import PlanRequest, PlanResult, plan_request
from repro.core.session import PlannerSession
from repro.platform.star import StarPlatform
from repro.service.client import ServiceClient
from repro.service.server import PlanServer

KEYS = 12
THREADS = 8
ROUNDS = 25


def stress_key(i: int):
    return ("stress", i)


def stress_entry(i: int) -> PlanResult:
    """A deterministic synthetic PlanResult whose content encodes ``i``."""
    speeds = np.array([1.0 + (i % 7), 2.0])
    request = PlanRequest(
        platform=StarPlatform.from_speeds(speeds.tolist()),
        N=100.0 + i,
        strategy="hom",
    )
    plan = StrategyResult(
        strategy="hom",
        N=100.0 + i,
        speeds=speeds,
        comm_volume=float(i + 1),
        finish_times=np.array([float(i), float(i)]),
        imbalance=0.0,
    )
    return PlanResult(request=request, plan=plan, elapsed_s=0.0)


def check_entry(i: int, result: PlanResult) -> None:
    """Assert a read-back entry is the complete value for key ``i``."""
    assert result.plan.comm_volume == float(i + 1)
    assert result.request.N == 100.0 + i
    assert np.array_equal(
        result.plan.finish_times, np.array([float(i), float(i)])
    )


def hammer(store: SQLitePlanCache, worker: int, rounds: int) -> int:
    """Interleaved get/put over the shared key space; returns get count."""
    gets = 0
    for r in range(rounds):
        i = (worker + r) % KEYS
        found = store.get(stress_key(i))
        gets += 1
        if found is None:
            store.put(stress_key(i), stress_entry(i))
        else:
            check_entry(i, found)
    return gets


def process_worker(args) -> int:
    """Module-level so ProcessPoolExecutor can pickle it."""
    path, worker, rounds = args
    store = SQLitePlanCache(path)
    try:
        return hammer(store, worker, rounds)
    finally:
        store.close()


def verify_final_state(path, total_gets: int) -> None:
    store = SQLitePlanCache(path)
    try:
        # every hammer get counted exactly once, no lost counter
        # updates (read the stats before the verification gets below)
        stats = store.stats
        assert stats.lookups == total_gets, (
            f"{stats.lookups} recorded lookups != {total_gets} issued"
        )
        # no lost writes: every key is present and content-correct
        assert len(store) == KEYS
        for i in range(KEYS):
            found = store.get(stress_key(i))
            assert found is not None, f"key {i} lost"
            check_entry(i, found)
    finally:
        store.close()


def test_threaded_hammering_one_store(tmp_path):
    """THREADS threads share one SQLitePlanCache *instance*."""
    path = tmp_path / "stress.db"
    store = SQLitePlanCache(path)
    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        counts = list(
            pool.map(
                lambda w: hammer(store, w, ROUNDS), range(THREADS)
            )
        )
    store.close()
    verify_final_state(path, sum(counts))


def test_multiprocess_hammering_one_file(tmp_path):
    """4 worker processes open the same cache file independently."""
    path = str(tmp_path / "stress.db")
    SQLitePlanCache(path).close()  # create schema up front
    jobs = [(path, w, ROUNDS) for w in range(4)]
    with ProcessPoolExecutor(max_workers=4) as pool:
        counts = list(pool.map(process_worker, jobs))
    verify_final_state(path, sum(counts))


def test_mixed_threads_and_processes(tmp_path):
    """Threads in this process race worker processes on one file."""
    path = str(tmp_path / "stress.db")
    store = SQLitePlanCache(path)
    with ProcessPoolExecutor(max_workers=2) as procs, ThreadPoolExecutor(
        max_workers=4
    ) as threads:
        proc_counts = procs.map(
            process_worker, [(path, w, ROUNDS) for w in (0, 1)]
        )
        thread_counts = threads.map(
            lambda w: hammer(store, w, ROUNDS), (2, 3, 4, 5)
        )
        total = sum(proc_counts) + sum(thread_counts)
    store.close()
    verify_final_state(path, total)


def mixed_requests():
    """Nine requests, three per vectorisable strategy, on one platform."""
    platform = StarPlatform.from_speeds([1.0, 2.0, 4.0, 8.0])
    return [
        PlanRequest(platform=platform, N=float(n), strategy=strategy)
        for n in (500, 1000, 1500)
        for strategy in ("hom", "het", "hom/k")
    ]


def test_session_traffic_on_shared_sqlite(backend_spec, tmp_path):
    """Every execution backend drives one shared durable store safely.

    Two sessions on the same backend share one sqlite cache; the
    second session's identical batch must be all hits, with stats that
    sum consistently.
    """
    requests = mixed_requests()
    path = tmp_path / "shared.db"
    store = SQLitePlanCache(path)
    with PlannerSession(backend=backend_spec, cache=store) as first:
        cold = first.plan_batch(requests)
    with PlannerSession(backend=backend_spec, cache=store) as second:
        warm = second.plan_batch(requests)
    stats = store.stats
    store.close()

    assert not any(r.cached for r in cold)
    assert all(r.cached for r in warm)
    for a, b in zip(cold, warm):
        assert a.comm_volume == b.comm_volume
        assert np.array_equal(a.plan.finish_times, b.plan.finish_times)
    assert stats.lookups == 2 * len(requests)
    assert stats.hits == stats.misses == len(requests)


def test_concurrent_clients_on_one_sqlite_server(tmp_path):
    """Four clients post one mixed /plan_batch to a sqlite-backed server.

    The server's handler threads plan concurrently against one durable
    store: every reply must equal local scalar planning, and the
    store must count each request's lookup exactly once.
    """
    clients = 4
    requests = mixed_requests()
    expected = [plan_request(req) for req in requests]
    start = threading.Barrier(clients)
    replies = [None] * clients
    errors = []

    def post(index, url):
        client = ServiceClient(url)
        try:
            start.wait(timeout=30)
            replies[index] = client.plan_items(requests)
        except Exception as exc:  # surfaced in the main thread
            errors.append(exc)
        finally:
            client.close()

    spec = f"sqlite:{tmp_path / 'served.db'}"
    with PlanServer(port=0, cache=spec) as server:
        threads = [
            threading.Thread(target=post, args=(i, server.url))
            for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        probe = ServiceClient(server.url)
        stats = probe.get_json("/cache/stats")
        probe.close()

    assert not errors, errors
    for reply in replies:
        assert len(reply) == len(requests)
        for got, want in zip(reply, expected):
            assert got.request.strategy == want.request.strategy
            np.testing.assert_allclose(
                got.comm_volume, want.comm_volume, rtol=1e-12
            )
            np.testing.assert_allclose(
                got.plan.finish_times, want.plan.finish_times, rtol=1e-12
            )
    assert stats["lookups"] == clients * len(requests)
    assert stats["hits"] + stats["misses"] == stats["lookups"]
