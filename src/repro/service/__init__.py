"""repro.service — the planning service layer (client/server, stdlib-only).

Turns the planner into a network service on top of the PR-2 session
seam and the PR-4 plan-store protocol:

* :mod:`repro.service.wire` — binary-v2, the one versioned envelope
  every binary payload travels in (pickle-free, magic line first).
* :mod:`repro.service.server` — :class:`PlanServer` / ``repro serve``:
  a :class:`~repro.core.session.PlannerSession` behind a stdlib
  threading HTTP server (``/plan``, ``/plan_batch``, ``/cache/get``,
  ``/cache/stats``, ``/healthz``).  Its store is written only by its
  own planning, and many client processes share it as a warm cache.
* :mod:`repro.service.client` — :class:`ServiceClient`, which sends
  planning items to a server; a session built with
  ``backend="remote:HOST:PORT"`` plans its cache misses through one.

Every planning path that takes a session spec — sessions, the
Figure-4 / ρ experiments, the CLI — offloads by switching that string,
and the service contract is the session contract: results are
bit-identical to local planning (the vectorise suite's ``rtol=1e-12``
envelope), cache entries are interchangeable with every other store.
"""

from repro.service.client import (
    PlanServiceError,
    ServiceClient,
)
from repro.service.server import PlanServer
from repro.service.wire import WIRE_FORMAT, WIRE_VERSION, WireError

__all__ = [
    "PlanServer",
    "PlanServiceError",
    "ServiceClient",
    "WIRE_FORMAT",
    "WIRE_VERSION",
    "WireError",
]
