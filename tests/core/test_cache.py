"""Direct unit tests for the plan stores (no session in the loop).

Covers the satellite fix of ISSUE 4: LRU eviction in
``MemoryPlanCache.put`` (evict oldest, count it, leave hit/miss
statistics untouched) and the documented ``clear()``-resets-stats
behaviour — plus the sqlite and tiered stores' contract at the same
altitude.
"""

import pickle

import numpy as np
import pytest

from repro import registry
from repro.core.cache import (
    CacheStats,
    MemoryPlanCache,
    PlanStore,
    SQLitePlanCache,
    TieredPlanCache,
    cache_from_spec,
    encode_key,
    plan_cache_key,
)
from repro.core.pipeline import PlanRequest, plan_request
from repro.platform.star import StarPlatform


def make_entry(n: float, strategy: str = "het"):
    """A real (key, PlanResult) pair for a small platform."""
    platform = StarPlatform.from_speeds([1.0, 2.0, 4.0])
    request = PlanRequest(platform=platform, N=n, strategy=strategy)
    factory = registry.get("strategy", strategy)
    return plan_cache_key(request, factory), plan_request(request)


def results_equal(a, b) -> bool:
    """Content equality for PlanResult (ndarray fields need care)."""
    return (
        a.request.strategy == b.request.strategy
        and a.request.N == b.request.N
        and a.plan.strategy == b.plan.strategy
        and a.plan.N == b.plan.N
        and a.plan.comm_volume == b.plan.comm_volume
        and a.plan.imbalance == b.plan.imbalance
        and np.array_equal(a.plan.speeds, b.plan.speeds)
        and np.array_equal(a.plan.finish_times, b.plan.finish_times)
    )


class TestMemoryLRU:
    def test_eviction_drops_oldest_key_only(self):
        cache = MemoryPlanCache(max_entries=2)
        entries = [make_entry(n) for n in (100.0, 200.0, 300.0)]
        for key, result in entries:
            cache.put(key, result)
        assert len(cache) == 2
        # the oldest key is gone; the two younger ones survive
        assert cache.get(entries[0][0]) is None
        assert cache.get(entries[1][0]) is not None
        assert cache.get(entries[2][0]) is not None

    def test_eviction_reports_and_leaves_hit_miss_stats_unchanged(self):
        cache = MemoryPlanCache(max_entries=2)
        for n in (100.0, 200.0, 300.0, 400.0):
            key, result = make_entry(n)
            cache.put(key, result)
        stats = cache.stats
        # puts past capacity evict and report...
        assert stats.evictions == 2
        assert stats.entries == 2
        # ...but never touch the lookup counters
        assert stats.hits == 0
        assert stats.misses == 0

    def test_get_refreshes_lru_order(self):
        cache = MemoryPlanCache(max_entries=2)
        a, b, c = (make_entry(n) for n in (1.0, 2.0, 3.0))
        cache.put(*a)
        cache.put(*b)
        assert cache.get(a[0]) is not None  # a is now most recent
        cache.put(*c)  # evicts b, not a
        assert cache.get(a[0]) is not None
        assert cache.get(b[0]) is None

    def test_put_existing_key_at_capacity_does_not_evict(self):
        cache = MemoryPlanCache(max_entries=2)
        a, b = (make_entry(n) for n in (1.0, 2.0))
        cache.put(*a)
        cache.put(*b)
        cache.put(*a)  # overwrite, still 2 entries
        assert len(cache) == 2
        assert cache.stats.evictions == 0

    def test_clear_resets_entries_and_all_statistics(self):
        cache = MemoryPlanCache(max_entries=2)
        for n in (1.0, 2.0, 3.0):
            cache.put(*make_entry(n))
        cache.get(object())  # a miss
        cache.clear()
        stats = cache.stats
        assert len(cache) == 0
        assert (stats.hits, stats.misses, stats.evictions) == (0, 0, 0)

    def test_max_entries_validated(self):
        with pytest.raises(ValueError, match="max_entries"):
            MemoryPlanCache(max_entries=0)


class TestSQLiteStore:
    def test_roundtrip_and_persistence(self, tmp_path):
        path = tmp_path / "plans.db"
        key, result = make_entry(500.0)
        store = SQLitePlanCache(path)
        assert store.get(key) is None  # miss counted
        store.put(key, result)
        assert results_equal(store.get(key), result)
        store.close()
        # a fresh instance (fresh process, after a crash, ...) sees the
        # entry *and* the persisted counters
        reopened = SQLitePlanCache(path)
        assert results_equal(reopened.get(key), result)
        stats = reopened.stats
        assert stats.hits == 2 and stats.misses == 1
        assert stats.entries == len(reopened) == 1
        assert stats.max_entries == 0  # unbounded
        assert "unbounded" in stats.render()
        reopened.close()

    def test_clear_resets_rows_and_persisted_stats(self, tmp_path):
        store = SQLitePlanCache(tmp_path / "plans.db")
        key, result = make_entry(500.0)
        store.put(key, result)
        store.get(key)
        store.clear()
        assert len(store) == 0
        stats = store.stats
        assert (stats.hits, stats.misses) == (0, 0)

    @pytest.mark.parametrize("p", [8, 32])
    @pytest.mark.parametrize("strategy", ["het", "hom", "hom/k"])
    def test_registered_strategies_roundtrip(self, tmp_path, strategy, p):
        from repro.service.wire import pack_v2

        speeds = np.random.default_rng(p).uniform(1.0, 10.0, size=p)
        request = PlanRequest(
            platform=StarPlatform.from_speeds(speeds.tolist()),
            N=1000.0,
            strategy=strategy,
        )
        key = plan_cache_key(request, registry.get("strategy", strategy))
        result = plan_request(request)
        store = SQLitePlanCache(tmp_path / "plans.db")
        store.put(key, result)
        assert pack_v2(store.get(key)) == pack_v2(result)
        store.close()
        fresh = SQLitePlanCache(tmp_path / "plans.db")
        assert pack_v2(fresh.get(key)) == pack_v2(result)
        fresh.close()

    def test_pickle_era_row_is_a_miss_then_overwritten(self, tmp_path):
        store = SQLitePlanCache(tmp_path / "plans.db")
        key, result = make_entry(500.0)
        store._connection().execute(
            "INSERT INTO plans (key, value, created_at, last_used)"
            " VALUES (?, ?, 0, 0)",
            (encode_key(key), pickle.dumps(result)),
        )
        assert store.get(key) is None
        assert store.get(key) is None
        stats = store.stats
        assert (stats.hits, stats.misses) == (0, 2)
        store.put(key, result)
        assert results_equal(store.get(key), result)
        stats = store.stats
        assert stats.hits + stats.misses == 3
        assert len(store) == 1

    def test_unencodable_result_names_the_type(self, tmp_path):
        from dataclasses import replace

        from repro.service.wire import WireError

        class Exotic:
            pass

        key, result = make_entry(500.0)
        plan = replace(result.plan, detail={"x": Exotic()})
        store = SQLitePlanCache(tmp_path / "plans.db")
        with pytest.raises(WireError, match="Exotic"):
            store.put(key, replace(result, plan=plan))
        assert len(store) == 0

    def test_export_import_moves_entries(self, tmp_path):
        src = SQLitePlanCache(tmp_path / "src.db")
        entries = [make_entry(n) for n in (1.0, 2.0, 3.0)]
        for key, result in entries:
            src.put(key, result)
        out = tmp_path / "dump.bin"
        assert src.export_file(out) == 3
        dst = SQLitePlanCache(tmp_path / "dst.db")
        assert dst.import_file(out) == 3
        query = "SELECT * FROM plans ORDER BY key"
        rows = dst._connection().execute(query).fetchall()
        assert rows == src._connection().execute(query).fetchall()
        for key, result in entries:
            assert results_equal(dst.get(key), result)

    def test_import_rejects_foreign_files_before_unpickling(self, tmp_path):
        """A pickle — bare or a pickle-era export — is never unpickled."""

        class Marker:
            def __reduce__(self):
                return (open, (str(tmp_path / "unpickled"), "w"))

        payload = {"format": "repro-plan-cache", "version": 1,
                   "rows": [], "marker": Marker()}
        store = SQLitePlanCache(tmp_path / "plans.db")
        for body in (
            pickle.dumps(payload),
            b"repro-plan-cache:v1\n" + pickle.dumps(payload),
        ):
            bogus = tmp_path / "bogus.pkl"
            bogus.write_bytes(body)
            with pytest.raises(ValueError, match="not a repro plan-cache"):
                store.import_file(bogus)
        assert not (tmp_path / "unpickled").exists()

    def test_import_rejects_malformed_payloads(self, tmp_path):
        from repro.service.wire import pack_v2

        store = SQLitePlanCache(tmp_path / "plans.db")
        good_row = ("digest", b"blob", 0.0, 0.0)
        for payload in (
            {"format": "repro-plan-cache", "version": 2},
            {"format": "repro-plan-cache", "version": 2,
             "rows": [("too", "short")]},
            {"format": "repro-plan-cache", "version": 2,
             "rows": [("digest", "not bytes", 0.0, 0.0)]},
            {"format": "repro-plan-cache", "version": 2,
             "rows": [good_row, ("digest", b"blob", "then", 0.0)]},
            {"format": "repro-plan-cache", "version": 2, "rows": (good_row,)},
            {"format": "repro-plan-cache", "version": 1, "rows": [good_row]},
            {"format": "repro-plan-cache", "version": 99},
            {"format": "something-else", "version": 2, "rows": []},
            ["not", "a", "dict"],
        ):
            bad = tmp_path / "bad.bin"
            bad.write_bytes(pack_v2(payload))
            with pytest.raises(ValueError):
                store.import_file(bad)
        assert len(store) == 0

    def test_damaged_exports_only_ever_raise_value_error(self, tmp_path):
        src = SQLitePlanCache(tmp_path / "src.db")
        key, result = make_entry(1.0, strategy="hom")
        src.put(key, result)
        out = tmp_path / "dump.bin"
        src.export_file(out)
        data = out.read_bytes()
        store = SQLitePlanCache(tmp_path / "dst.db")
        damaged = tmp_path / "damaged.bin"
        for cut in range(len(data)):
            damaged.write_bytes(data[:cut])
            with pytest.raises(ValueError):
                store.import_file(damaged)
        assert len(store) == 0
        for pos in range(len(data)):
            flipped = bytearray(data)
            flipped[pos] ^= 1 << (pos % 8)
            damaged.write_bytes(bytes(flipped))
            try:
                store.import_file(damaged)
            except ValueError:
                pass  # refused cleanly: the only acceptable failure

    def test_tilde_path_expanded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        store = SQLitePlanCache("~/nested/plans.db")
        store.close()
        assert (tmp_path / "nested" / "plans.db").exists()


class TestTieredStore:
    def test_write_through_and_promote_on_hit(self, tmp_path):
        tiered = TieredPlanCache(tmp_path / "plans.db")
        key, result = make_entry(500.0)
        tiered.put(key, result)
        # write-through: both tiers hold it
        assert tiered.memory.get(key) is not None
        assert tiered.disk.get(key) is not None
        # evict the memory copy, then a tiered get must promote it back
        tiered.memory.clear()
        assert results_equal(tiered.get(key), result)  # disk hit
        assert tiered.memory.get(key) is not None  # promoted

    def test_stats_report_per_tier_hits(self, tmp_path):
        # a one-entry memory front, so a second put LRU-evicts the
        # first key from memory without touching any counters
        tiered = TieredPlanCache(
            tmp_path / "plans.db", memory=MemoryPlanCache(max_entries=1)
        )
        key, result = make_entry(500.0)
        tiered.get(key)  # overall miss
        tiered.put(key, result)
        tiered.get(key)  # memory hit
        tiered.put(*make_entry(900.0))  # evicts `key` from memory
        tiered.get(key)  # disk hit (promotes)
        stats = tiered.stats
        tiers = dict(stats.tier_hits)
        assert tiers["memory"] == 1
        assert tiers["disk"] == 1
        assert stats.hits == 2 and stats.misses == 1
        assert "tier hits" in stats.render()

    def test_needs_path_or_disk(self):
        with pytest.raises(ValueError, match="path or a back-tier store"):
            TieredPlanCache()


class TestSpecsAndKeys:
    def test_cache_from_spec_variants(self, tmp_path):
        assert isinstance(cache_from_spec("memory"), MemoryPlanCache)
        sized = cache_from_spec("memory:7")
        assert sized.max_entries == 7
        sqlite = cache_from_spec(f"sqlite:{tmp_path / 'a.db'}")
        assert isinstance(sqlite, SQLitePlanCache)
        tiered = cache_from_spec(f"tiered:{tmp_path / 'b.db'}")
        assert isinstance(tiered, TieredPlanCache)

    def test_cache_from_spec_passthrough_and_errors(self, tmp_path):
        store = MemoryPlanCache()
        assert cache_from_spec(store) is store
        with pytest.raises(ValueError, match="bad cache spec 'sqlite'"):
            cache_from_spec("sqlite")
        with pytest.raises(ValueError, match="bad cache spec 'tiered'"):
            cache_from_spec("tiered")
        with pytest.raises(ValueError, match="integer"):
            cache_from_spec("memory:lots")
        # sizes the store itself rejects are spec errors too, so the
        # CLI reports them without a traceback
        with pytest.raises(ValueError, match="bad cache spec 'memory:0'"):
            cache_from_spec("memory:0")
        with pytest.raises(ValueError, match="unknown cache"):
            cache_from_spec("redis:somewhere")

    def test_stores_satisfy_protocol(self, tmp_path):
        assert isinstance(MemoryPlanCache(), PlanStore)
        assert isinstance(SQLitePlanCache(tmp_path / "p.db"), PlanStore)
        assert isinstance(TieredPlanCache(tmp_path / "p.db"), PlanStore)

    def test_encode_key_stable_and_distinct(self):
        key_a, _ = make_entry(100.0)
        key_b, _ = make_entry(200.0)
        assert encode_key(key_a) == encode_key(key_a)
        assert encode_key(key_a) != encode_key(key_b)
        assert len(encode_key(key_a)) == 64  # sha256 hex

    def test_registry_kind_lists_builtin_stores(self):
        # the spec table in repro.core.cache names the stores; the
        # plugin registry holds only the paper's component kinds
        assert "cache" not in registry.kinds()
        with pytest.raises(
            ValueError,
            match=r"expected one of \('memory', 'sqlite', 'tiered'\)",
        ):
            cache_from_spec("nope")

    @pytest.mark.parametrize("url", ["http://127.0.0.1:1", "https://h:443"])
    def test_tiered_refuses_a_url(self, url, tmp_path, monkeypatch):
        # a URL is not a sqlite path: before, it became a file named
        # after it in the working directory
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="bad cache spec") as err:
            cache_from_spec(f"tiered:{url}")
        assert "--backend remote:HOST:PORT" in str(err.value)
        assert list(tmp_path.iterdir()) == []


class TestCacheStatsRender:
    def test_bounded_render_shows_capacity(self):
        stats = CacheStats(
            hits=3, misses=1, entries=2, max_entries=8, evictions=0
        )
        text = stats.render()
        assert "2/8" in text and "75.0%" in text
