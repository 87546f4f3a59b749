"""Vectorised batch planning: miss → group → kernel → result.

The Figure-4 / ρ-sweep protocols replan the *same* closed-form
strategies across hundreds of (platform, N) points.  Planning each
request alone wastes the structure a batch carries: requests that share
a strategy (and its effective parameters) can be planned together by a
single NumPy pass — one partitioner run per distinct speed vector, one
demand-driven schedule per distinct platform, stacked cycle-time and
finish-time arrays for everything else.

This module is the routing layer between
:meth:`repro.core.session.PlannerSession.plan_batch` and the
strategies' optional batched kernels:

1. **group** — cache misses are grouped by ``(strategy, effective
   params)``; the effective params are the request params filtered to
   what the strategy accepts (:func:`~repro.core.pipeline.supported_kwargs`)
   and frozen with the same machinery the plan cache uses, so two
   requests that would share a cache entry also share a group;
2. **kernel** — groups of two or more requests whose strategy class
   implements the optional batched protocol::

       def plan_batch(self, platforms, Ns) -> list[StrategyResult]

   travel through one :func:`plan_request_group` call (one strategy
   instance, one vectorised pass);
3. **fallback** — singleton groups and strategies without a batched
   kernel fall back to the scalar :func:`~repro.core.pipeline.plan_request`,
   so plugins never have to implement ``plan_batch`` to participate in
   batches.

Equivalence contract: a batched kernel must return plans equal to the
scalar path — bit-identical where the kernels share the scalar op
order (the ``het`` finish times and communication volumes, the ``hom``
closed-form path), and within ``rtol = 1e-12`` otherwise (the shared
demand-driven schedule, whose task *counts* are scale-invariant but
recomputed float sums may differ in the last ulp).  Cached entries
produced by either path are therefore interchangeable; the tier-1
equivalence suite (``tests/core/test_vectorize.py``) enforces this for
every built-in strategy, planned locally and on a plan server.

The contract extends to *plan storage*: the session writes every
batch-planned result through its :class:`~repro.core.cache.PlanStore`
under the same content key the scalar path uses (grouping reuses the
cache's :func:`~repro.core.cache.frozen_effective_params`), so a
tiered or sqlite-backed store filled by a vectorised sweep replays
identically into a scalar one and vice versa — batched fills
write through every tier exactly like scalar fills do.

A :class:`VectorGroup` carries only
:class:`~repro.core.pipeline.PlanRequest` objects, so a session on a
plan server (``backend="remote:HOST:PORT"``) sends whole groups in its
``/plan_batch`` call exactly like scalar requests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Hashable, List, Sequence, Tuple

from repro import registry
from repro.core.cache import frozen_effective_params
from repro.core.pipeline import (
    PlanRequest,
    PlanResult,
    plan_request,
    supported_kwargs,
)


def batch_capable(factory: Callable[..., Any]) -> bool:
    """True when ``factory`` (a strategy class) offers ``plan_batch``.

    The batched protocol is detected on the factory itself — for the
    dataclass strategies that means the unbound method — so grouping
    never has to instantiate a strategy just to probe it.  Function
    factories (whose product may or may not have a kernel) report
    ``False`` and plan scalar, which is always correct.
    """
    return callable(getattr(factory, "plan_batch", None))


def solve_dlt_batch(
    solver: str,
    platforms: Sequence[Any],
    Ns: Sequence[float],
    **params: Any,
) -> List[Any]:
    """Route a batch of DLT instances through a solver's batch kernel.

    The DLT-solver counterpart of the strategy grouping seam: solvers
    registered under ``dlt_solver`` may attach a ``plan_batch`` function
    attribute (the §2 nonlinear solvers do), detected with the same
    :func:`batch_capable` probe.  Batches of two or more instances go
    through one stacked kernel call; singletons and plain solvers run
    the scalar factory per instance — always correct, never required to
    implement the kernel.  The vectorisation equivalence contract
    (rtol ``1e-12``) applies to results from either path.
    """
    if len(platforms) != len(Ns):
        raise ValueError(
            f"{len(platforms)} platforms but {len(Ns)} load sizes"
        )
    factory = registry.get("dlt_solver", solver)
    if len(platforms) > 1 and batch_capable(factory):
        return factory.plan_batch(platforms, Ns, **params)
    return [
        factory(platform, N, **params)
        for platform, N in zip(platforms, Ns)
    ]


def group_key(
    request: PlanRequest, factory: Callable[..., Any]
) -> Hashable:
    """The key under which a request joins a vector group.

    Strategy name × :func:`~repro.core.cache.frozen_effective_params` —
    literally the cache key's parameter component, so an ignored
    parameter (``imbalance_target`` on ``het``) never splits a group
    and requests that share a cache entry always share a group.
    """
    return (request.strategy, frozen_effective_params(request, factory))


@dataclass(frozen=True)
class VectorGroup:
    """A batch slice that one strategy instance plans in one pass.

    Every request shares ``strategy`` and the same effective params, so
    a single ``factory(**kwargs)`` instance serves the whole group.
    A group crosses the wire whole to a plan server (the ``vg`` node
    of :mod:`repro.service.wire`).
    """

    strategy: str
    requests: Tuple[PlanRequest, ...]

    def __len__(self) -> int:
        return len(self.requests)


def plan_request_group(group: VectorGroup) -> List[PlanResult]:
    """Plan one vector group through its strategy's batched kernel.

    One strategy instance, one ``plan_batch`` call; the group's
    wall-clock time is split evenly across its results' ``elapsed_s``
    (per-request timing is meaningless inside a fused kernel, but the
    *sum* over a batch stays comparable with the scalar path).
    """
    factory = registry.get("strategy", group.strategy)
    kwargs = supported_kwargs(factory, group.requests[0].params)
    start = time.perf_counter()
    strategy = factory(**kwargs)
    plans = strategy.plan_batch(
        [req.platform for req in group.requests],
        [req.N for req in group.requests],
    )
    elapsed = time.perf_counter() - start
    if len(plans) != len(group.requests):
        raise RuntimeError(
            f"strategy {group.strategy!r} returned {len(plans)} plans "
            f"for a batch of {len(group.requests)} requests"
        )
    share = elapsed / len(group.requests)
    return [
        PlanResult(request=req, plan=plan, elapsed_s=share)
        for req, plan in zip(group.requests, plans)
    ]


def plan_batch_requests(
    requests: Sequence[PlanRequest], client: Any = None
) -> List[PlanResult]:
    """Plan a batch, vectorising where strategies allow it.

    Groups ``requests`` by :func:`group_key`, routes groups of two or
    more batch-capable requests through :func:`plan_request_group` and
    everything else through the scalar
    :func:`~repro.core.pipeline.plan_request`.  Given a plan-server
    ``client`` (a :class:`~repro.service.client.ServiceClient`), the
    groups and scalar requests travel instead as one mixed item list
    in a single ``/plan_batch`` call, and the server plans them; an
    empty batch never touches the network.  Results align with
    ``requests`` by index.
    """
    if not requests:
        return []
    results: List[PlanResult | None] = [None] * len(requests)
    grouped: dict[Hashable, List[int]] = {}
    scalar_idx: List[int] = []
    for i, req in enumerate(requests):
        factory = registry.get("strategy", req.strategy)
        if batch_capable(factory):
            grouped.setdefault(group_key(req, factory), []).append(i)
        else:
            scalar_idx.append(i)

    vector_groups: List[Tuple[List[int], VectorGroup]] = []
    for idxs in grouped.values():
        if len(idxs) < 2:
            # a group of one gains nothing from a kernel; the scalar
            # path keeps single plans on the exact historical codepath
            scalar_idx.extend(idxs)
            continue
        vector_groups.append(
            (
                idxs,
                VectorGroup(
                    strategy=requests[idxs[0]].strategy,
                    requests=tuple(requests[i] for i in idxs),
                ),
            )
        )
    scalar_idx.sort()

    groups = [group for _, group in vector_groups]
    scalars = [requests[i] for i in scalar_idx]
    if client is not None:
        outputs = client.plan_items(groups + scalars)
    else:
        outputs = [plan_request_group(group) for group in groups]
        outputs += [plan_request(req) for req in scalars]

    for (idxs, _), group_results in zip(vector_groups, outputs):
        for i, result in zip(idxs, group_results):
            results[i] = result
    for i, result in zip(scalar_idx, outputs[len(vector_groups):]):
        results[i] = result
    return results  # type: ignore[return-value]
