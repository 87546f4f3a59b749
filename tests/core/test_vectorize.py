"""Equivalence suite for the vectorised batch-planning path.

The contract (see :mod:`repro.core.vectorize`): for every built-in
strategy and backend, a session's ``plan_batch`` returns plans equal
to ``[plan_request(r) for r in requests]`` — bit-identical where the
kernels share the scalar op order, and within ``rtol = 1e-12``
otherwise — so entries a batch stored serve single requests too.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import registry
from repro.core.cache import MemoryPlanCache
from repro.core.pipeline import PlanRequest, plan_request
from repro.core.session import PlannerSession
from repro.core.vectorize import (
    VectorGroup,
    batch_capable,
    group_key,
    plan_batch_requests,
    plan_request_group,
)
from repro.platform.generators import make_speeds
from repro.platform.star import StarPlatform
from repro.service.server import PlanServer

RTOL = 1e-12  # the documented vectorisation tolerance

VECTOR_STRATEGIES = ("hom", "het", "hom/k")


def random_platforms(seed=99, sizes=(3, 7, 16), models=("uniform", "lognormal")):
    rng = np.random.default_rng(seed)
    platforms = [StarPlatform.homogeneous(5)]
    for model in models:
        for p in sizes:
            platforms.append(
                StarPlatform.from_speeds(make_speeds(model, p, rng))
            )
    return platforms


def figure4_batch(trials=4, sizes=(10, 20), N=10_000.0, seed=2013):
    """The Figure-4 protocol's requests, flattened into one batch."""
    rng = np.random.default_rng(seed)
    requests = []
    for p in sizes:
        for _ in range(trials):
            platform = StarPlatform.from_speeds(make_speeds("uniform", p, rng))
            for name in registry.available("strategy"):
                requests.append(
                    PlanRequest(
                        platform=platform,
                        N=N,
                        strategy=name,
                        params={"imbalance_target": 0.01},
                    )
                )
    return requests


def assert_results_equivalent(scalar_results, vector_results):
    assert len(scalar_results) == len(vector_results)
    for a, b in zip(scalar_results, vector_results):
        assert a.strategy == b.strategy
        assert a.plan.strategy == b.plan.strategy
        assert a.plan.N == b.plan.N
        assert np.isclose(a.comm_volume, b.comm_volume, rtol=RTOL, atol=0)
        assert np.allclose(
            a.plan.finish_times, b.plan.finish_times, rtol=RTOL, atol=0
        )
        if math.isinf(a.imbalance):
            assert math.isinf(b.imbalance)
        else:
            assert np.isclose(a.imbalance, b.imbalance, rtol=1e-9, atol=1e-15)
        if "counts" in a.plan.detail:
            assert np.array_equal(
                a.plan.detail["counts"], b.plan.detail["counts"]
            )
            assert a.plan.detail["n_blocks"] == b.plan.detail["n_blocks"]
            assert a.plan.detail["subdivision"] == b.plan.detail["subdivision"]
        if "converged" in a.plan.detail:
            assert a.plan.detail["converged"] == b.plan.detail["converged"]


class TestStrategyKernels:
    """Strategy.plan_batch agrees with Strategy.plan, member by member."""

    @pytest.mark.parametrize("name", VECTOR_STRATEGIES)
    def test_random_platforms_and_N_grid(self, name):
        factory = registry.get("strategy", name)
        assert batch_capable(factory)
        strategy = factory()
        platforms, Ns = [], []
        for platform in random_platforms():
            for N in (500.0, 1000.0, 2500.0, 10_000.0):
                platforms.append(platform)
                Ns.append(N)
        batch = strategy.plan_batch(platforms, Ns)
        for platform, N, plan in zip(platforms, Ns, batch):
            scalar = strategy.plan(platform, N)
            assert plan.comm_volume == scalar.comm_volume
            assert np.allclose(
                plan.finish_times, scalar.finish_times, rtol=RTOL, atol=0
            )

    def test_length_mismatch_rejected(self):
        strategy = registry.get("strategy", "het")()
        with pytest.raises(ValueError, match="platforms but"):
            strategy.plan_batch([StarPlatform.homogeneous(2)], [1.0, 2.0])

    def test_invalid_N_rejected(self):
        strategy = registry.get("strategy", "hom")()
        with pytest.raises(ValueError, match="N"):
            strategy.plan_batch([StarPlatform.homogeneous(2)], [-1.0])

    def test_hom_closed_form_path(self):
        """Batches crossing the heap/closed-form threshold stay exact."""
        rng = np.random.default_rng(3)
        platform = StarPlatform.from_speeds(make_speeds("lognormal", 80, rng))
        strategy = registry.get("strategy", "hom")()
        assert strategy.n_blocks(platform, 1000.0) > 1000
        Ns = [float(n) for n in (800, 1000, 1200, 5000)]
        batch = strategy.plan_batch([platform] * len(Ns), Ns)
        for N, plan in zip(Ns, batch):
            scalar = strategy.plan(platform, N)
            assert np.array_equal(plan.finish_times, scalar.finish_times)
            assert plan.comm_volume == scalar.comm_volume


class TestSessionEquivalence:
    """The session-level acceptance: plan_batch ≡ plan_request per request."""

    def test_figure4_sweep_batch(self):
        requests = figure4_batch()
        scalar_results = [plan_request(req) for req in requests]
        with PlannerSession(cache=False) as session:
            vector_results = session.plan_batch(requests)
        assert_results_equivalent(scalar_results, vector_results)

    def test_every_backend_matches_serial_scalar(self, backend_spec):
        requests = figure4_batch(trials=2, sizes=(8,))
        expected = [plan_request(req) for req in requests]
        with PlannerSession(backend=backend_spec, cache=False) as session:
            got = session.plan_batch(requests)
        assert_results_equivalent(expected, got)

    def test_mixed_params_group_separately(self, heterogeneous_platform):
        """Requests with different effective params never share a kernel."""
        requests = [
            PlanRequest(
                platform=heterogeneous_platform,
                N=float(n),
                strategy="hom/k",
                params={"imbalance_target": target},
            )
            for n in (1000, 2000)
            for target in (0.01, 0.5)
        ]
        with PlannerSession(cache=False) as session:
            results = session.plan_batch(requests)
        for req, res in zip(requests, results):
            scalar = plan_request(req)
            assert res.plan.detail["subdivision"] == scalar.plan.detail["subdivision"]
            assert np.isclose(
                res.comm_volume, scalar.comm_volume, rtol=RTOL, atol=0
            )


class TestCacheInteraction:
    """Cache traffic and contents do not depend on where misses plan."""

    def test_cache_stats_unchanged_between_paths(self, heterogeneous_platform):
        """In process and on a plan server, the session's store sees
        the same lookups, misses and entries."""
        requests = [
            PlanRequest(platform=heterogeneous_platform, N=float(n), strategy=s)
            for n in (100, 200, 300)
            for s in ("hom", "het")
        ] * 2  # in-batch repeats: lookups are up-front, so both copies miss
        stats = {}
        with PlanServer(port=0, cache=False) as server:
            for backend in ("serial", f"remote:{server.host}:{server.port}"):
                with PlannerSession(backend) as session:
                    session.plan_batch(requests)
                    session.plan_batch(requests)
                    stats[backend] = session.cache_stats()
        local, remote = stats.values()
        assert local == remote
        assert local.hits == 12 and local.misses == 12
        assert local.entries == 6

    def test_warm_entries_interchangeable(self, heterogeneous_platform):
        """A store warmed by one batch serves single ``plan()`` calls."""
        requests = [
            PlanRequest(platform=heterogeneous_platform, N=float(n), strategy=s)
            for n in (100, 200)
            for s in ("hom", "het")
        ]
        shared = MemoryPlanCache()
        with PlannerSession(cache=shared) as warm:
            planned = warm.plan_batch(requests)
            assert not any(r.cached for r in planned)
        with PlannerSession(cache=shared) as reader:
            served = [reader.plan(req) for req in requests]
        assert all(r.cached for r in served)
        assert_results_equivalent(planned, served)


class TestGroupingAndFallback:
    def test_singleton_groups_plan_scalar(self, heterogeneous_platform):
        """A batch of all-distinct strategies matches per-request planning."""
        requests = [
            PlanRequest(platform=heterogeneous_platform, N=1000.0, strategy=s)
            for s in ("hom", "het", "hom/k")
        ]
        results = plan_batch_requests(requests)
        for req, res in zip(requests, results):
            scalar = plan_request(req)
            assert res.comm_volume == scalar.comm_volume

    def test_strategy_without_kernel_falls_back(self, heterogeneous_platform):
        class ScalarOnlyStrategy:
            """A plugin-style strategy with no plan_batch."""

            def plan(self, platform, N):
                return registry.get("strategy", "het")().plan(platform, N)

        registry.register("strategy", "scalar-only")(ScalarOnlyStrategy)
        try:
            assert not batch_capable(ScalarOnlyStrategy)
            requests = [
                PlanRequest(
                    platform=heterogeneous_platform, N=float(n),
                    strategy="scalar-only",
                )
                for n in (100, 200)
            ]
            with PlannerSession() as session:
                results = session.plan_batch(requests)
            assert [r.plan.N for r in results] == [100.0, 200.0]
        finally:
            registry.unregister("strategy", "scalar-only")

    def test_group_key_ignores_filtered_params(self, heterogeneous_platform):
        factory = registry.get("strategy", "het")
        a = group_key(
            PlanRequest(
                platform=heterogeneous_platform, N=1.0, strategy="het",
                params={"imbalance_target": 0.01},
            ),
            factory,
        )
        b = group_key(
            PlanRequest(
                platform=heterogeneous_platform, N=2.0, strategy="het",
                params={"imbalance_target": 0.99},
            ),
            factory,
        )
        assert a == b

    def test_plan_request_group_validates_length(self, heterogeneous_platform):
        class ShortStrategy:
            def plan(self, platform, N):  # pragma: no cover - unused
                raise AssertionError

            def plan_batch(self, platforms, Ns):
                return []

        registry.register("strategy", "short")(ShortStrategy)
        try:
            group = VectorGroup(
                strategy="short",
                requests=tuple(
                    PlanRequest(
                        platform=heterogeneous_platform, N=float(n),
                        strategy="short",
                    )
                    for n in (1, 2)
                ),
            )
            with pytest.raises(RuntimeError, match="returned 0 plans"):
                plan_request_group(group)
        finally:
            registry.unregister("strategy", "short")

    def test_group_timing_is_shared(self, heterogeneous_platform):
        requests = [
            PlanRequest(platform=heterogeneous_platform, N=float(n), strategy="het")
            for n in (100, 200, 300)
        ]
        results = plan_batch_requests(requests)
        shares = {r.elapsed_s for r in results}
        assert len(shares) == 1  # one kernel call, evenly attributed
        assert shares.pop() > 0.0
