"""The correctness gate every run passes through.

* A served answer must have the op's shape: one plan per request, in
  request order, each answering the request it was sent for.
* A seeded sample of served plans is replanned locally through
  ``plan_request`` and must agree to ``rtol=1e-12``.
* Client attempts per endpoint must equal the server's (or the
  coordinator's) ``/metrics`` count deltas exactly.
"""

from __future__ import annotations

import json
import urllib.request
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.pipeline import PlanResult, plan_request
from repro.core.vectorize import VectorGroup

from workloads import ENDPOINTS, Op

RTOL = 1e-12


def served_plans(op: Op, out: Any) -> Optional[List[Any]]:
    """The plans an answer carries, flattened in request order."""
    if op.kind != "plan_batch":
        return [out]
    if not isinstance(out, list) or len(out) != len(op.payload):
        return None
    flat: List[Any] = []
    for item, answer in zip(op.payload, out):
        if isinstance(item, VectorGroup):
            if not isinstance(answer, list):
                return None
            flat.extend(answer)
        else:
            flat.append(answer)
    return flat


def check_shape(op: Op, out: Any) -> bool:
    """Cheap per-op check: right count, right types, right requests."""
    plans = served_plans(op, out)
    if plans is None or len(plans) != len(op.requests):
        return False
    for plan, request in zip(plans, op.requests):
        if not isinstance(plan, PlanResult):
            return False
        if plan.request.strategy != request.strategy or float(
            plan.request.N
        ) != float(request.N):
            return False
    return True


def _agree(a: float, b: float) -> bool:
    return bool(np.isclose(a, b, rtol=RTOL, atol=0.0))


def replan_mismatches(samples: Sequence[tuple]) -> int:
    """Replan each ``(op, served)`` sample locally; count disagreements."""
    mismatches = 0
    for op, served in samples:
        plans = served_plans(op, served) or []
        if len(plans) != len(op.requests):
            mismatches += 1
            continue
        for plan, request in zip(plans, op.requests):
            local = plan_request(request).plan
            remote = plan.plan
            same = (
                remote.strategy == local.strategy
                and _agree(remote.N, local.N)
                and _agree(remote.comm_volume, local.comm_volume)
                and _agree(remote.imbalance, local.imbalance)
                and np.allclose(
                    np.asarray(remote.finish_times),
                    np.asarray(local.finish_times),
                    rtol=RTOL,
                    atol=0.0,
                )
                and np.array_equal(
                    np.asarray(plan.request.platform.speeds),
                    np.asarray(request.platform.speeds),
                )
            )
            if not same:
                mismatches += 1
    return mismatches


def endpoint_counts(url: str, topology: str) -> Dict[str, int]:
    """Requests the server has counted per op endpoint, from ``/metrics``."""
    with urllib.request.urlopen(f"{url}/metrics", timeout=30) as resp:
        payload = json.loads(resp.read())
    if topology == "cluster":
        payload = payload["coordinator"]
    endpoints = payload["endpoints"]
    return {
        name: int(endpoints.get(name, {}).get("count", 0))
        for name in ENDPOINTS.values()
    }


def unreconciled(
    before: Dict[str, int], after: Dict[str, int], sent: Dict[str, int]
) -> int:
    """Ops the server's counters and the client's attempts disagree on."""
    return sum(
        abs((after[name] - before[name]) - sent.get(name, 0))
        for name in ENDPOINTS.values()
    )
