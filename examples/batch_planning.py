#!/usr/bin/env python3
"""Batch planning walkthrough: the vectorised miss → group → kernel path.

The companion to ``examples/session_tour.py``: where the tour shows the
session API surface, this walks what happens *inside* ``plan_batch``
when a sweep-shaped workload (few platforms × many problem sizes ×
closed-form strategies) hits the vectorised path:

1. build a ρ-sweep-style batch and plan it both ways — one
   ``plan_request`` per request, and one cacheless session batch —
   timing each;
2. verify the equivalence contract (plans agree to ``rtol = 1e-12``;
   here they are bit-identical);
3. show the grouping machinery itself (`repro.core.vectorize`);
4. show that the plan cache is path-agnostic: entries a batch warmed
   serve single ``plan`` calls.

Run: ``python examples/batch_planning.py``
"""

import time

import numpy as np

from repro.core.cache import MemoryPlanCache
from repro.core.pipeline import PlanRequest, plan_request
from repro.core.session import PlannerSession
from repro.core.vectorize import batch_capable, group_key, plan_batch_requests
from repro import registry
from repro.platform.generators import make_speeds
from repro.platform.star import StarPlatform


def build_batch(n_platforms=4, p=48, n_sizes=30, seed=42):
    """Few platforms × many N × both closed-form strategies."""
    rng = np.random.default_rng(seed)
    platforms = [
        StarPlatform.from_speeds(make_speeds("uniform", p, rng))
        for _ in range(n_platforms)
    ]
    sizes = [float(1_000 + 300 * i) for i in range(n_sizes)]
    return [
        PlanRequest(platform=platform, N=size, strategy=strategy)
        for platform in platforms
        for size in sizes
        for strategy in ("hom", "het")
    ]


def main() -> None:
    requests = build_batch()
    print(f"batch: {len(requests)} requests "
          f"(4 platforms x 30 sizes x hom/het)\n")

    # --- 1. scalar vs vectorised, timed ------------------------------
    start = time.perf_counter()
    scalar_results = [plan_request(req) for req in requests]
    scalar_s = time.perf_counter() - start
    with PlannerSession(cache=False) as vectorised:
        start = time.perf_counter()
        vector_results = vectorised.plan_batch(requests)
        vector_s = time.perf_counter() - start
    print(f"scalar path:     {scalar_s * 1e3:8.1f} ms")
    print(f"vectorised path: {vector_s * 1e3:8.1f} ms "
          f"({scalar_s / vector_s:.1f}x faster)\n")

    # --- 2. the equivalence contract ---------------------------------
    identical = sum(
        a.comm_volume == b.comm_volume
        and np.array_equal(a.plan.finish_times, b.plan.finish_times)
        for a, b in zip(scalar_results, vector_results)
    )
    assert all(
        np.isclose(a.comm_volume, b.comm_volume, rtol=1e-12, atol=0)
        for a, b in zip(scalar_results, vector_results)
    )
    print(f"equivalence: {identical}/{len(requests)} plans bit-identical "
          "(contract: rtol <= 1e-12)\n")

    # --- 3. how grouping works ---------------------------------------
    # Misses group by (strategy, effective params); each group becomes
    # one kernel call.  'het' ignores imbalance_target, so these two
    # land in the SAME group (params are filtered before keying):
    factory = registry.get("strategy", "het")
    key_a = group_key(
        PlanRequest(platform=requests[0].platform, N=1_000.0, strategy="het",
                    params={"imbalance_target": 0.01}),
        factory,
    )
    key_b = group_key(
        PlanRequest(platform=requests[0].platform, N=2_000.0, strategy="het",
                    params={"imbalance_target": 0.75}),
        factory,
    )
    print(f"het is batch-capable: {batch_capable(factory)}")
    print(f"ignored params share a group: {key_a == key_b}")
    # plan_batch_requests is the session-free entry point (no cache):
    trio = plan_batch_requests(requests[:3])
    print(f"plan_batch_requests -> {[r.strategy for r in trio]}\n")

    # --- 4. the cache is path-agnostic -------------------------------
    shared = MemoryPlanCache()
    with PlannerSession(cache=shared) as warm:
        warm.plan_batch(requests)
    with PlannerSession(cache=shared) as reader:
        served = [reader.plan(req) for req in requests]
    print(f"entries warmed by a batch, read one by one: "
          f"{sum(r.cached for r in served)}/{len(served)} hits")
    print(shared.stats.render())


if __name__ == "__main__":
    main()
