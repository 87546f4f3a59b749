#!/usr/bin/env python3
"""Remote planning tour: one plan server, many transparent clients.

Boots a :class:`repro.service.server.PlanServer` in-process (the same
thing ``repro serve`` runs) and shows the one way clients reach it,
``backend="remote:HOST:PORT"``:

1. the session ships whole planning batches to the server and gets
   results identical to local planning back;
2. a second session — a separate process in real deployments — asks
   for the same sweep and is served from the server's store, which the
   first session's planning warmed.  Only the server's own planning
   writes that store.

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
        spec = f"remote:{server.host}:{server.port}"

        # --- 1. remote: offload the whole sweep -----------------------
        with PlannerSession() as local, PlannerSession(
            backend=spec, cache=False
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

        # --- 2. a second session, served from the server's store ------
        with PlannerSession(backend=spec, cache=False) as second:
            again = second.sweep(platform, N=10_000.0)
        served = sum(res.cached for res in again.results.values())
        assert served == len(again.results)
        print(
            f"second session: {served}/{len(again.results)} plan(s) "
            "served from the server's store, warmed by the first"
        )
        print()
        print("server-side view (what /cache/stats serves):")
        print(server.session.cache_stats().render())


if __name__ == "__main__":
    main()
