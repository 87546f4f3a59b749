"""Tests for PlannerSession: where misses plan, plan cache, batching."""

import threading

import pytest

from repro import registry
from repro.cluster.lifecycle import LocalCluster
from repro.core.cache import MemoryPlanCache, plan_cache_key
from repro.core.pipeline import PlanRequest, PlanResult, PlanSweep
from repro.core.session import (
    PlannerSession,
    default_session,
    reset_default_session,
)
from repro.experiments.figure4 import run_figure4
from repro.experiments.rho import run_rho_experiment
from repro.platform.star import StarPlatform
from repro.service.server import PlanServer

ALL_STRATEGIES = ("het", "hom", "hom/k")


@pytest.fixture
def session():
    with PlannerSession() as s:
        yield s


class TestPlan:
    def test_plan_single_request(self, session, heterogeneous_platform):
        result = session.plan(
            PlanRequest(platform=heterogeneous_platform, N=1000.0, strategy="het")
        )
        assert isinstance(result, PlanResult)
        assert result.strategy == "het"
        assert result.comm_volume > 0
        assert not result.cached

    def test_unknown_strategy_fails_fast(self, session, heterogeneous_platform):
        with pytest.raises(ValueError, match="unknown strategy 'nope'"):
            session.plan(
                PlanRequest(
                    platform=heterogeneous_platform, N=100.0, strategy="nope"
                )
            )


class TestSettings:
    """A session has two settings, ``backend`` and ``cache``; strategy
    params travel on each request."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: PlannerSession(vectorize=False),
            lambda: PlannerSession(cache=False).plan_batch([], vectorize=False),
            lambda: PlanServer(port=0, vectorize=False),
            lambda: LocalCluster(n=1, vectorize=False),
            lambda: run_figure4(
                "uniform", processors=(4,), trials=1, vectorize=False
            ),
            lambda: run_rho_experiment(ks=(4,), p=4, vectorize=False),
        ],
        ids=[
            "PlannerSession",
            "plan_batch",
            "PlanServer",
            "LocalCluster",
            "run_figure4",
            "run_rho_experiment",
        ],
    )
    def test_vectorize_keyword_is_a_type_error(self, call):
        with pytest.raises(TypeError, match="vectorize"):
            call()

    def test_no_session_wide_params(self):
        with pytest.raises(TypeError, match="imbalance_target"):
            PlannerSession(imbalance_target=0.05)


class TestPlanBatch:
    def test_results_align_with_requests(self, session, heterogeneous_platform):
        requests = [
            PlanRequest(platform=heterogeneous_platform, N=1000.0, strategy=name)
            for name in ("hom", "het", "hom", "hom/k")
        ]
        results = session.plan_batch(requests)
        assert [r.strategy for r in results] == ["hom", "het", "hom", "hom/k"]

    def test_empty_batch(self, session):
        assert session.plan_batch([]) == []

    def test_mixed_platforms(self, session):
        fast = StarPlatform.from_speeds([10.0, 10.0])
        slow = StarPlatform.from_speeds([1.0, 1.0])
        results = session.plan_batch(
            [
                PlanRequest(platform=fast, N=100.0, strategy="het"),
                PlanRequest(platform=slow, N=100.0, strategy="het"),
            ]
        )
        # same relative speeds → same partition → same comm volume
        assert results[0].comm_volume == pytest.approx(results[1].comm_volume)


class TestSweep:
    def test_sweeps_every_registered_strategy(
        self, session, heterogeneous_platform
    ):
        sweep = session.sweep(heterogeneous_platform, 1000.0)
        assert isinstance(sweep, PlanSweep)
        assert set(sweep.results) == set(ALL_STRATEGIES)

    def test_iteration_order_is_sorted(self, session, heterogeneous_platform):
        sweep = session.sweep(
            heterogeneous_platform, 1000.0, strategies=("hom", "het")
        )
        assert list(sweep.results) == ["het", "hom"]
        full = session.sweep(heterogeneous_platform, 500.0)
        assert list(full.results) == sorted(full.results)

    def test_params_reach_accepting_strategy(
        self, session, heterogeneous_platform
    ):
        sweep = session.sweep(
            heterogeneous_platform, 1000.0, imbalance_target=0.5
        )
        res = sweep.results["hom/k"]
        converged = res.plan.detail.get("converged", True)
        assert res.imbalance <= 0.5 or not converged


class TestBackendEquivalence:
    """Acceptance: the backend spec changes where planning runs, never
    results.

    The ``remote:`` half of the contract lives with the service tests
    (``tests/service/test_service.py``).
    """

    def test_backend_objects_refused(self):
        # only the two spec strings name where misses are planned
        class Mapper:
            def map(self, fn, items):
                return [fn(item) for item in items]

        with pytest.raises(registry.RegistryError, match="unknown backend"):
            PlannerSession(backend=Mapper())


class TestCache:
    def test_repeated_sweep_hits_every_strategy(self, heterogeneous_platform):
        with PlannerSession() as session:
            first = session.sweep(heterogeneous_platform, 1000.0)
            assert first.cache_hits == 0
            assert first.cache_misses == len(ALL_STRATEGIES)
            second = session.sweep(heterogeneous_platform, 1000.0)
        # acceptance: >= 1 hit per strategy, no re-planning time spent
        assert second.cache_hits == len(ALL_STRATEGIES)
        assert second.cache_misses == 0
        for res in second.results.values():
            assert res.cached
            assert res.elapsed_s == 0.0

    def test_stats_accumulate(self, heterogeneous_platform):
        with PlannerSession() as session:
            session.sweep(heterogeneous_platform, 1000.0)
            session.sweep(heterogeneous_platform, 1000.0)
            stats = session.cache_stats()
        assert stats.hits == len(ALL_STRATEGIES)
        assert stats.misses == len(ALL_STRATEGIES)
        assert stats.lookups == 2 * len(ALL_STRATEGIES)
        assert stats.hit_rate == pytest.approx(0.5)
        assert "hit rate" in stats.render()

    def test_ignored_param_shares_entry(self, heterogeneous_platform):
        """Two requests differing only in an ignored param share an entry."""
        with PlannerSession() as session:
            first = session.plan(
                PlanRequest(
                    platform=heterogeneous_platform,
                    N=1000.0,
                    strategy="het",
                    params={"imbalance_target": 0.01},
                )
            )
            # "het" does not accept imbalance_target → same cache entry
            second = session.plan(
                PlanRequest(
                    platform=heterogeneous_platform,
                    N=1000.0,
                    strategy="het",
                    params={"imbalance_target": 0.75},
                )
            )
            assert not first.cached
            assert second.cached
            assert len(session.cache) == 1

    def test_honored_param_gets_own_entry(self, heterogeneous_platform):
        with PlannerSession() as session:
            first = session.plan(
                PlanRequest(
                    platform=heterogeneous_platform,
                    N=1000.0,
                    strategy="hom/k",
                    params={"imbalance_target": 0.01},
                )
            )
            # hom/k honors imbalance_target → different key, a miss
            second = session.plan(
                PlanRequest(
                    platform=heterogeneous_platform,
                    N=1000.0,
                    strategy="hom/k",
                    params={"imbalance_target": 0.75},
                )
            )
            assert not first.cached and not second.cached
            assert len(session.cache) == 2

    def test_clear_cache_invalidates(self, heterogeneous_platform):
        with PlannerSession() as session:
            request = PlanRequest(
                platform=heterogeneous_platform, N=1000.0, strategy="het"
            )
            session.plan(request)
            assert session.plan(request).cached
            session.clear_cache()
            assert len(session.cache) == 0
            replanned = session.plan(request)
        assert not replanned.cached
        stats = session.cache_stats()
        # clear() resets the counters too: one miss since, nothing else
        assert (stats.hits, stats.misses) == (0, 1)

    def test_different_platform_content_misses(self):
        with PlannerSession() as session:
            session.plan(
                PlanRequest(
                    platform=StarPlatform.from_speeds([1.0, 2.0]), N=100.0
                )
            )
            other = session.plan(
                PlanRequest(
                    platform=StarPlatform.from_speeds([1.0, 3.0]), N=100.0
                )
            )
        assert not other.cached

    def test_cache_disabled(self, heterogeneous_platform):
        with PlannerSession(cache=False) as session:
            assert session.cache is None
            assert session.cache_stats() is None
            sweep = session.sweep(heterogeneous_platform, 1000.0)
            again = session.sweep(heterogeneous_platform, 1000.0)
        assert sweep.cache_hits is None and sweep.cache_misses is None
        assert not any(res.cached for res in again.results.values())
        assert "cache:" not in again.render()

    def test_sweep_counts_only_its_own_lookups(self, heterogeneous_platform):
        others = [
            PlanRequest(platform=heterogeneous_platform, N=50.0 + i)
            for i in range(4)
        ]

        class Shared(MemoryPlanCache):
            """Lets a second session plan, from another thread, in the
            middle of the sweep's first lookup."""

            def get(self, key):
                if others:
                    batch = others[:]
                    others.clear()
                    thread = threading.Thread(
                        target=other.plan_batch, args=(batch,)
                    )
                    thread.start()
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                return super().get(key)

        shared = Shared()
        with PlannerSession(cache=shared) as other, PlannerSession(
            cache=shared
        ) as session:
            sweep = session.sweep(heterogeneous_platform, 1000.0)
            assert shared.stats.lookups == len(ALL_STRATEGIES) + 4
        assert sweep.cache_hits + sweep.cache_misses == len(sweep.results)
        assert sweep.cache_misses == len(ALL_STRATEGIES)

    def test_shared_cache_between_sessions(self, heterogeneous_platform):
        shared = MemoryPlanCache()
        request = PlanRequest(
            platform=heterogeneous_platform, N=1000.0, strategy="het"
        )
        with PlannerSession(cache=shared) as first:
            first.plan(request)
        with PlannerSession(cache=shared) as second:
            assert second.plan(request).cached

    def test_lru_eviction(self, heterogeneous_platform):
        cache = MemoryPlanCache(max_entries=2)
        with PlannerSession(cache=cache) as session:
            for n in (100.0, 200.0, 300.0):
                session.plan(
                    PlanRequest(platform=heterogeneous_platform, N=n)
                )
            assert len(cache) == 2
            assert cache.stats.evictions == 1
            # the oldest entry (N=100) was evicted → re-planning misses
            oldest = session.plan(
                PlanRequest(platform=heterogeneous_platform, N=100.0)
            )
        assert not oldest.cached

    def test_key_ignores_param_order(self, heterogeneous_platform):
        factory = registry.get("strategy", "hom/k")
        a = plan_cache_key(
            PlanRequest(
                platform=heterogeneous_platform,
                N=10.0,
                strategy="hom/k",
                params={"imbalance_target": 0.1},
            ),
            factory,
        )
        b = plan_cache_key(
            PlanRequest(
                platform=heterogeneous_platform,
                N=10.0,
                strategy="hom/k",
                params={"imbalance_target": 0.1},
            ),
            factory,
        )
        assert a == b


class TestRenderWithCache:
    def test_render_reports_hits(self, heterogeneous_platform):
        with PlannerSession() as session:
            session.sweep(heterogeneous_platform, 1000.0)
            text = session.sweep(heterogeneous_platform, 1000.0).render()
        assert "3 hit(s)" in text
        assert "served from cache" in text


class TestDefaultSession:
    def test_singleton(self):
        reset_default_session()
        try:
            assert default_session() is default_session()
        finally:
            reset_default_session()

    def test_reset_builds_fresh(self):
        first = default_session()
        reset_default_session()
        try:
            assert default_session() is not first
        finally:
            reset_default_session()
