"""The unified planning pipeline: ``PlanRequest → PlanResult``.

Every outer-product strategy in the registry is invoked the same way:
a :class:`PlanRequest` names the platform, the problem size and the
strategy (plus free-form parameters); :func:`plan_request` resolves the
strategy through :mod:`repro.registry`, filters the parameters down to
what the strategy's constructor accepts, times the planning call and
wraps the outcome — together with its communication lower bound — in a
:class:`PlanResult`.

:func:`plan_request` is the *raw* planner: no cache, no plan server.
Almost all callers want :class:`repro.core.session.PlannerSession`
instead, which plans batches of requests in process or on a plan
server, behind a content-keyed plan cache.  (The historical free functions ``execute``
/ ``execute_all`` were deprecated shims over the default session; they
were removed in repro 2.0 as scheduled — see the README's migration
notes for the one-line replacements.)
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro import registry
from repro.blocks.metrics import StrategyResult
from repro.platform.star import StarPlatform
from repro.util.tables import format_table


def supported_kwargs(
    factory: Callable[..., Any], params: Mapping[str, Any]
) -> dict[str, Any]:
    """Subset of ``params`` that ``factory``'s signature accepts.

    Lets one request carry parameters for heterogeneous strategies
    (e.g. ``imbalance_target`` applies to ``hom/k`` only) without every
    strategy having to swallow ``**kwargs``.  A factory with a
    ``**kwargs`` parameter receives everything.
    """
    try:
        sig = inspect.signature(factory)
    except (TypeError, ValueError):
        return dict(params)
    accepted = set()
    for p in sig.parameters.values():
        if p.kind is inspect.Parameter.VAR_KEYWORD:
            return dict(params)
        if p.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            accepted.add(p.name)
    return {k: v for k, v in params.items() if k in accepted}


@dataclass(frozen=True)
class PlanRequest:
    """One normalized planning job: which strategy on which instance.

    The unit of work everything downstream speaks — sessions cache it
    (under its content key), a ``remote:`` session sends it to a plan
    server, and the
    vectorised path groups it with other requests sharing a strategy.
    Immutable and hashable-by-content, so a request can safely appear
    in many batches.

    Example::

        PlanRequest(platform=StarPlatform.from_speeds([1, 2, 4]),
                    N=10_000.0, strategy="hom/k",
                    params={"imbalance_target": 0.01})
    """

    #: the star platform to plan on (content-fingerprinted for caching)
    platform: StarPlatform
    #: problem size — the outer product is ``N × N``
    N: float
    #: a registered strategy name (``repro list strategy``)
    strategy: str = "het"
    #: free-form strategy parameters; silently filtered down to what
    #: the strategy's constructor accepts (:func:`supported_kwargs`)
    params: Mapping[str, Any] = field(default_factory=dict)

    def with_strategy(self, strategy: str) -> "PlanRequest":
        """The same instance under a different strategy."""
        return PlanRequest(
            platform=self.platform,
            N=self.N,
            strategy=strategy,
            params=self.params,
        )


@dataclass(frozen=True)
class PlanResult:
    """A strategy's plan plus uniform bookkeeping (timing, LB ratio).

    Wraps the strategy's own :class:`~repro.blocks.metrics.StrategyResult`
    (``.plan``) with the request it answers and how it was produced.
    The convenience properties (``comm_volume``, ``ratio_to_lower_bound``,
    ``imbalance``, ``makespan``) forward to the plan so tables and
    experiments never reach through two layers.
    """

    #: the request this result answers (defaults already merged in)
    request: PlanRequest
    #: the strategy's plan with its communication/imbalance metrics
    plan: StrategyResult
    #: wall-clock seconds spent planning (construction + .plan());
    #: an even share of the kernel's time when planned in a vectorised
    #: group; 0.0 when the plan came out of a session's cache
    elapsed_s: float
    #: True when a session served this result from its plan cache
    cached: bool = False

    @property
    def strategy(self) -> str:
        return self.request.strategy

    @property
    def comm_volume(self) -> float:
        return self.plan.comm_volume

    @property
    def lower_bound(self) -> float:
        return self.plan.lower_bound

    @property
    def ratio_to_lower_bound(self) -> float:
        return self.plan.ratio_to_lower_bound

    @property
    def imbalance(self) -> float:
        return self.plan.imbalance

    @property
    def makespan(self) -> float:
        return self.plan.makespan

    def summary(self) -> str:
        if self.cached:
            return f"{self.plan.summary()}, served from cache"
        return f"{self.plan.summary()}, planned in {self.elapsed_s * 1e3:.2f} ms"


def plan_request(request: PlanRequest) -> PlanResult:
    """Resolve, invoke and time one strategy through the registry.

    The raw planner: no caching, no plan server.  Sessions wrap
    this; call it directly only when you explicitly want to bypass
    them.
    """
    factory = registry.get("strategy", request.strategy)
    kwargs = supported_kwargs(factory, request.params)
    start = time.perf_counter()
    plan = factory(**kwargs).plan(request.platform, request.N)
    elapsed = time.perf_counter() - start
    return PlanResult(request=request, plan=plan, elapsed_s=elapsed)


@dataclass(frozen=True)
class PlanSweep:
    """Every requested strategy on one instance, uniformly accounted.

    ``results`` iterates in sorted strategy-name order regardless of
    where it was planned, so local and remote sweeps render
    identical tables.  ``cache_hits``/``cache_misses`` count how this
    sweep's requests fared against the session's plan cache (``None``
    when the sweep ran without one).
    """

    N: float
    results: Mapping[str, PlanResult]
    cache_hits: int | None = None
    cache_misses: int | None = None

    @property
    def ratios(self) -> dict[str, float]:
        return {
            name: res.ratio_to_lower_bound for name, res in self.results.items()
        }

    @property
    def best(self) -> PlanResult:
        """The plan with the lowest communication volume."""
        if not self.results:
            raise ValueError("empty sweep: no strategies were planned")
        return min(self.results.values(), key=lambda r: r.comm_volume)

    def render(self) -> str:
        rows = [
            [
                name + (" *" if res.cached else ""),
                res.comm_volume,
                res.ratio_to_lower_bound,
                res.imbalance,
                res.elapsed_s * 1e3,
            ]
            for name, res in self.results.items()
        ]
        table = format_table(
            ["strategy", "comm volume", "ratio to LB", "imbalance e", "plan ms"],
            rows,
            title=f"Strategy sweep, N={self.N:g} (best: {self.best.strategy})",
        )
        if self.cache_hits is not None and self.cache_misses is not None:
            table += (
                f"\ncache: {self.cache_hits} hit(s), "
                f"{self.cache_misses} miss(es)"
                + ("  (* = served from cache)" if self.cache_hits else "")
            )
        return table
