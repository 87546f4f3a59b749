"""WorkerPool: membership, liveness accounting, the heartbeat monitor."""

import threading
import time

import pytest

from repro.cluster.pool import WorkerPool, normalize_worker_url

URL_A = "http://127.0.0.1:9001"
URL_B = "http://127.0.0.1:9002"


class TestMembership:
    def test_register_and_list(self):
        pool = WorkerPool()
        info = pool.register(URL_A)
        assert info.url == URL_A
        assert info.alive
        assert [w.url for w in pool.workers()] == [URL_A]

    def test_register_idempotent_by_url(self):
        pool = WorkerPool()
        first = pool.register(URL_A)
        again = pool.register(URL_A + "/")  # trailing slash normalised
        assert again.id == first.id
        assert len(pool.workers()) == 1

    def test_register_rejects_non_http(self):
        with pytest.raises(ValueError):
            WorkerPool().register("127.0.0.1:9001")

    def test_mark_dead_records_reason_and_failure(self):
        pool = WorkerPool()
        pool.register(URL_A)
        pool.mark_dead(URL_A, "connection refused")
        (info,) = pool.workers()
        assert not info.alive
        assert info.reason == "connection refused"
        assert info.failures == 1
        # marking an already-dead worker dead again is not a new failure
        pool.mark_dead(URL_A, "again")
        assert pool.workers()[0].failures == 1


class TestUrlNormalisation:
    """Every lookup must accept any spelling register() accepts.

    Regression: mark_dead/acquire/release used to look up the *raw*
    URL while register normalised — a coordinator passing a
    trailing-slash URL silently no-opped mark_dead, so a dead worker
    kept receiving dispatch and inflight accounting drifted.
    """

    def test_normalize_worker_url(self):
        assert normalize_worker_url(f"  {URL_A}/ ") == URL_A
        assert normalize_worker_url(URL_A) == URL_A

    def test_mark_dead_normalises_trailing_slash(self):
        pool = WorkerPool()
        pool.register(URL_A)
        pool.mark_dead(URL_A + "/", "transport failure")
        assert not pool.alive()
        (info,) = pool.workers()
        assert info.reason == "transport failure"
        assert info.failures == 1

    def test_mark_dead_normalises_whitespace(self):
        pool = WorkerPool()
        pool.register(URL_A + "/")  # stored normalised
        pool.mark_dead(f" {URL_A} ")
        assert not pool.alive()

    def test_acquire_release_normalise(self):
        pool = WorkerPool()
        pool.register(URL_A)
        pool.acquire(URL_A + "/", 3)
        (info,) = pool.workers()
        assert info.inflight == 3
        assert info.dispatched == 3
        pool.release(URL_A + "/", 3)
        assert pool.workers()[0].inflight == 0


class TestLoadAccounting:
    def test_acquire_release(self):
        pool = WorkerPool()
        pool.register(URL_A)
        pool.acquire(URL_A, 3)
        (info,) = pool.workers()
        assert info.inflight == 3
        assert info.dispatched == 3
        pool.release(URL_A, 3)
        assert pool.workers()[0].inflight == 0
        assert pool.workers()[0].dispatched == 3

    def test_release_never_goes_negative(self):
        pool = WorkerPool()
        pool.register(URL_A)
        pool.release(URL_A, 5)
        assert pool.workers()[0].inflight == 0

    def test_unknown_url_is_a_noop(self):
        pool = WorkerPool()
        pool.acquire(URL_A)  # nothing registered: must not raise
        pool.release(URL_A)


class TestSnapshot:
    def test_snapshot_shape(self):
        pool = WorkerPool()
        pool.register(URL_A)
        pool.register(URL_B)
        pool.mark_dead(URL_B, "test")
        snap = pool.snapshot()
        assert snap["total"] == 2
        assert snap["alive"] == 1
        assert snap["max_missed"] == 2
        by_url = {w["url"]: w for w in snap["workers"]}
        assert by_url[URL_B]["alive"] is False
        assert by_url[URL_B]["reason"] == "test"

    def test_snapshot_is_json_able(self):
        import json

        pool = WorkerPool()
        pool.register(URL_A)
        json.dumps(pool.snapshot())


class TestMonitor:
    def test_marks_dead_after_max_missed_probes(self):
        pool = WorkerPool()
        pool.register(URL_A)
        pool.start_monitor(lambda url: False, interval=0.05)
        try:
            deadline = time.time() + 5
            while pool.alive() and time.time() < deadline:
                time.sleep(0.02)
            (info,) = pool.workers()
            assert not info.alive
            assert info.missed >= 2
            assert "missed heartbeats" in info.reason
        finally:
            pool.stop_monitor()

    def test_probe_success_revives(self):
        pool = WorkerPool()
        pool.register(URL_A)
        healthy = threading.Event()
        pool.start_monitor(lambda url: healthy.is_set(), interval=0.05)
        try:
            deadline = time.time() + 5
            while pool.alive() and time.time() < deadline:
                time.sleep(0.02)
            assert not pool.alive()
            healthy.set()
            deadline = time.time() + 5
            while not pool.alive() and time.time() < deadline:
                time.sleep(0.02)
            assert pool.alive()
        finally:
            pool.stop_monitor()

    def test_probe_exception_counts_as_miss(self):
        pool = WorkerPool()
        pool.register(URL_A)

        def explode(url):
            raise OSError("probe failed")

        pool.start_monitor(explode, interval=0.05)
        try:
            deadline = time.time() + 5
            while pool.alive() and time.time() < deadline:
                time.sleep(0.02)
            assert not pool.alive()
        finally:
            pool.stop_monitor()

    def test_start_monitor_twice_is_noop(self):
        pool = WorkerPool()
        pool.start_monitor(lambda url: True, interval=10)
        try:
            pool.start_monitor(lambda url: True, interval=10)
        finally:
            pool.stop_monitor()

    def test_stop_monitor_without_start(self):
        WorkerPool().stop_monitor()  # must not raise


class TestValidation:
    def test_monitor_interval_must_be_positive(self):
        pool = WorkerPool()
        with pytest.raises(ValueError):
            pool.start_monitor(lambda url: True, interval=0)
