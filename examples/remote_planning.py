#!/usr/bin/env python3
"""Remote planning tour: one plan server, many transparent clients.

Boots a :class:`repro.service.server.PlanServer` in-process (the same
thing ``repro serve`` runs) and shows the three ways clients reach it:

1. ``backend="remote:HOST:PORT"`` — the session ships whole planning
   batches to the server and gets identical results back;
2. ``cache="http://HOST:PORT"`` — the session plans locally but reads
   and warms the *server's* store, so separate processes share hits;
3. ``cache="tiered:http://HOST:PORT"`` — same, with a local memory
   front so hot keys skip the network.

Everything is stdlib HTTP on 127.0.0.1; runs in a few seconds.

Run: ``python examples/remote_planning.py``
"""

import numpy as np

from repro.core.session import PlannerSession
from repro.platform.star import StarPlatform
from repro.service.server import PlanServer


def main() -> None:
    platform = StarPlatform.from_speeds([1, 2, 4, 8])

    with PlanServer(port=0, cache="memory") as server:
        print(f"plan server up at {server.url}")
        print()

        # --- 1. remote backend: offload the whole sweep ---------------
        with PlannerSession() as local, PlannerSession(
            backend=f"remote:{server.host}:{server.port}", cache=False
        ) as remote:
            here = local.sweep(platform, N=10_000.0)
            there = remote.sweep(platform, N=10_000.0)
        for name in here.results:
            a = here.results[name].comm_volume
            b = there.results[name].comm_volume
            assert np.isclose(a, b, rtol=1e-12), name
        print("remote sweep == local sweep, strategy by strategy:")
        print(there.render())
        print()

        # --- 2. the server store as a shared cache --------------------
        # A "second process" (fresh session, no local cache) sees the
        # entries the remote sweep just planted server-side:
        with PlannerSession(cache=f"http://{server.host}:{server.port}") as shared:
            sweep = shared.sweep(platform, N=10_000.0)
        print(
            f"shared-store sweep: {sweep.cache_hits} hit(s), "
            f"{sweep.cache_misses} miss(es) — warmed by the remote run"
        )

        # --- 3. tiered: memory front over the shared store ------------
        with PlannerSession(
            cache=f"tiered:http://{server.host}:{server.port}"
        ) as tiered:
            tiered.sweep(platform, N=10_000.0)   # fills the local front
            tiered.sweep(platform, N=10_000.0)   # pure memory hits
            stats = tiered.cache_stats()
        print(f"tiered per-tier hits: {dict(stats.tier_hits)}")
        print()
        print("server-side view (what /cache/stats serves):")
        print(server.session.cache_stats().render())


if __name__ == "__main__":
    main()
