#!/usr/bin/env python3
"""Session tour: cached, batched planning.

Walks the `PlannerSession` API end to end in a few seconds:

1. one session, one request — `plan()`;
2. a full strategy sweep — `sweep()` — and the same sweep again,
   served entirely from the plan cache;
3. a batch of requests in one `plan_batch()` call, fused through the
   strategies' vectorised kernels (and the guarantee that the scalar
   path returns the same plans);
4. cache statistics, ignored-parameter sharing and invalidation;
5. where the old free functions went (removed in 2.0).

Run: ``python examples/session_tour.py``
"""

import math

from repro.core.pipeline import PlanRequest, plan_request
from repro.core.session import PlannerSession
from repro.platform.star import StarPlatform


def main() -> None:
    platform = StarPlatform.from_speeds([1, 2, 4, 8])
    print(platform.describe())
    print(f"fingerprint: {platform.fingerprint()}   (the cache key's anchor)")
    print()

    # --- 1. one session, one request ----------------------------------
    session = PlannerSession()  # serial, caching on
    result = session.plan(
        PlanRequest(platform=platform, N=10_000.0, strategy="het")
    )
    print("single plan:", result.summary())
    print()

    # --- 2. sweep twice: the second is pure cache ---------------------
    sweep = session.sweep(platform, N=10_000.0, imbalance_target=0.01)
    print(sweep.render())
    print()
    again = session.sweep(platform, N=10_000.0, imbalance_target=0.01)
    print(again.render())  # note the * rows and "3 hit(s)"
    print()

    # --- 3. one batch, vectorised -------------------------------------
    # Misses sharing a strategy are planned by one NumPy kernel call,
    # which returns the same plans as planning each request alone.
    requests = [
        PlanRequest(platform=platform, N=float(n), strategy=name)
        for n in (1_000, 2_000, 4_000)
        for name in ("hom", "het")
    ]
    with PlannerSession(cache=False) as batched:
        batch = batched.plan_batch(requests)
    scalar = [plan_request(req) for req in requests]
    for res, ref in zip(batch, scalar):
        assert math.isclose(res.comm_volume, ref.comm_volume, rel_tol=1e-12)
        print(
            f"  N={res.request.N:>6g}  {res.strategy:<4} "
            f"comm={res.comm_volume:>10.1f}  "
            f"ratio={res.ratio_to_lower_bound:.3f}"
        )
    print()

    # --- 4. cache behaviour -------------------------------------------
    # 'het' ignores imbalance_target, so these two requests share one
    # cache entry (params are filtered per strategy before keying):
    session.plan(
        PlanRequest(
            platform=platform,
            N=500.0,
            strategy="het",
            params={"imbalance_target": 0.01},
        )
    )
    shared = session.plan(
        PlanRequest(
            platform=platform,
            N=500.0,
            strategy="het",
            params={"imbalance_target": 0.9},
        )
    )
    print(f"ignored-param request cached: {shared.cached}")
    print(session.cache_stats().render())
    session.clear_cache()
    print(f"after clear_cache(): {len(session.cache)} entries")
    print()

    # --- 5. the old free functions ------------------------------------
    print(
        "repro.core.pipeline.execute/execute_all were removed in repro\n"
        "2.0 as their DeprecationWarning announced — use\n"
        "PlannerSession.plan/.sweep (or pass session=... to the\n"
        "plan_outer_product / compare_strategies façade).  See the\n"
        "README's migration notes, examples/batch_planning.py for the\n"
        "vectorised batch path, and examples/remote_planning.py for\n"
        "offloading to a plan server."
    )


if __name__ == "__main__":
    main()
