"""PlannerSession: the cached, batched planning API.

A session owns the concerns the free-function pipeline lacked:

* **where misses are planned** — the ``backend`` spec names one of two
  places: ``serial`` plans a batch's cache misses in the calling
  thread, ``remote:HOST:PORT`` sends them to a plan server (a
  ``repro serve`` instance or a cluster coordinator) in one
  ``/plan_batch`` call;
* **plan caching** — results are memoised under a content key
  (platform fingerprint × N × strategy × effective params), so the
  Figure-4 protocol's repeated queries and service-style workloads
  skip re-planning; hits surface in :class:`PlanSweep` tables and
  :meth:`cache_stats`;
* **batching** — a batch's cache misses are planned by
  :func:`repro.core.vectorize.plan_batch_requests`: misses that share
  a strategy (and its effective params) go through the strategy's
  batched NumPy kernel when it has one, everything else through the
  scalar :func:`repro.core.pipeline.plan_request`.

Usage::

    from repro.core.session import PlannerSession

    session = PlannerSession()                       # serial, cached
    sweep = session.sweep(platform, N=10_000)        # all strategies
    sweep = session.sweep(platform, N=10_000)        # same → all hits
    print(sweep.render(), session.cache_stats().render(), sep="\\n")

Results are bit-identical either way: the spec only changes *where*
a batch is planned, never what it computes, and sweeps iterate in
sorted strategy order.

The module-level :func:`default_session` (serial, caching) backs the
façade in :mod:`repro.core.strategies`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, List, Sequence

from repro import obs, registry
from repro.core.cache import (
    CacheStats,
    MemoryPlanCache,
    PlanStore,
    cache_from_spec,
    plan_cache_key,
)
from repro.core.pipeline import PlanRequest, PlanResult, PlanSweep
from repro.core.vectorize import plan_batch_requests
from repro.platform.star import StarPlatform
from repro.registry import RegistryError

#: the two ``backend`` specs, for error messages
_BACKEND_FORMS = "expected 'serial' or 'remote:HOST:PORT'"


def _plan_server_client(backend: str) -> Any:
    """The plan-server client a ``backend`` spec names (``None``: serial).

    ``remote:ADDRESS`` yields a session-owned
    :class:`~repro.service.client.ServiceClient` (60 s per attempt, the
    client's default retries); any spec but the two forms raises
    :class:`~repro.registry.RegistryError`, a user error the CLI
    reports without a traceback.
    """
    if backend == "serial":
        return None
    name, colon, address = str(backend).partition(":")
    if name == "remote" and colon:
        # imported here: repro.service imports repro.core
        from repro.service.client import ServiceClient

        try:
            return ServiceClient(address, timeout=60.0)
        except ValueError as exc:
            raise RegistryError(
                f"bad backend spec {backend!r}: {exc}; {_BACKEND_FORMS}"
            ) from None
    raise RegistryError(f"unknown backend {backend!r}; {_BACKEND_FORMS}")


class PlannerSession:
    """Cached, batched planning over the registry.

    Parameters
    ----------
    backend:
        Where cache misses are planned: ``"serial"`` (the default) in
        the calling thread, ``"remote:HOST:PORT"`` on a plan server,
        in one ``/plan_batch`` call per batch.
    cache:
        ``True`` (default) for a fresh in-process
        :class:`~repro.core.cache.MemoryPlanCache`, ``False`` to plan
        every request anew, a spec string (``"memory"`` /
        ``"sqlite:PATH"`` / ``"tiered:PATH"``, see
        :func:`~repro.core.cache.cache_from_spec`), or any
        :class:`~repro.core.cache.PlanStore` instance — share one
        store between sessions, or hand over a durable
        :class:`~repro.core.cache.SQLitePlanCache` so plans survive
        the process and sweeps resume from disk.
    """

    def __init__(
        self,
        backend: str = "serial",
        *,
        cache: bool | str | PlanStore = True,
    ) -> None:
        # parsed before the cache spec: a bad backend spec then fails
        # before a sqlite store opens a connection
        self._client = _plan_server_client(backend)
        self.backend = backend
        # a store built here from a spec string is session-owned and
        # closed with the session; an instance passed in may be shared
        # between sessions, so its lifecycle stays with the caller
        self._owns_cache = isinstance(cache, str)
        if cache is True:
            self._cache: PlanStore | None = MemoryPlanCache()
        elif cache is False or cache is None:
            self._cache = None
        elif isinstance(cache, str):
            self._cache = cache_from_spec(cache)
        else:
            self._cache = cache

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Release the plan-server connections (idempotent).

        A shared cache instance survives — only a store this session
        built itself from a spec string (``cache="sqlite:..."``) has
        its connections released here; its file of course persists.
        """
        if self._client is not None:
            self._client.close()
        if self._owns_cache and self._cache is not None:
            closer = getattr(self._cache, "close", None)
            if closer is not None:
                closer()

    def __enter__(self) -> "PlannerSession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cache = "off" if self._cache is None else f"{len(self._cache)} entries"
        return (
            f"PlannerSession(backend={self.backend!r}, cache={cache})"
        )

    # -- planning --------------------------------------------------------

    def plan(self, request: PlanRequest) -> PlanResult:
        """Plan one request (cache first, then the planner).

        A single request never enters a vector group, so ``plan`` runs
        the scalar :func:`~repro.core.pipeline.plan_request` on a miss.
        """
        return self.plan_batch((request,))[0]

    def plan_batch(
        self,
        requests: Sequence[PlanRequest],
    ) -> List[PlanResult]:
        """Plan many requests; results align with ``requests`` by index.

        Cache lookups happen up front on the calling thread; only the
        misses are planned (here, or on the plan server in one
        ``/plan_batch`` call), and their results are cached on the way
        back.  Misses sharing a strategy are fused into one batched
        kernel call per group; singletons and strategies without a
        kernel are planned one by one
        (:func:`~repro.core.vectorize.plan_batch_requests`).
        """
        return self._plan_batch(requests)[0]

    def _plan_batch(
        self, requests: Sequence[PlanRequest]
    ) -> tuple[List[PlanResult], int | None]:
        """:meth:`plan_batch`, and how many of this call's own cache
        lookups missed (``None`` with caching off)."""
        results: List[PlanResult | None] = [None] * len(requests)
        misses: List[tuple[int, Any, PlanRequest]] = []
        # obs.span is a no-op unless the calling thread carries an
        # active trace (a sampled request on a --trace server); the
        # untraced hot path pays one context-var read per seam
        with obs.span("cache_lookup", requests=len(requests)) as lookup_span:
            for i, req in enumerate(requests):
                # resolve eagerly: unknown strategies fail fast with the
                # registry's "expected one of …" message, and the factory
                # identity feeds the cache key
                factory = registry.get("strategy", req.strategy)
                if self._cache is None:
                    misses.append((i, None, req))
                    continue
                # keying lives with the session, not the store: any
                # PlanStore (memory, sqlite, tiered, plugin) sees the same
                # content keys, so stores can warm each other
                key = plan_cache_key(req, factory)
                hit = self._cache.get(key)
                if hit is not None:
                    results[i] = replace(
                        hit, request=req, cached=True, elapsed_s=0.0
                    )
                else:
                    misses.append((i, key, req))
            if lookup_span is not None:
                lookup_span.meta["misses"] = len(misses)
        if misses:
            miss_requests = [req for _, _, req in misses]
            # recorded on the calling thread, so it covers kernel time
            # plus any remote round trip — the whole planning cost of
            # the batch as this request experienced it
            with obs.span("plan_kernel", misses=len(misses)):
                planned = plan_batch_requests(miss_requests, self._client)
            for (i, key, _), result in zip(misses, planned):
                if self._cache is not None:
                    self._cache.put(key, result)
                results[i] = result
        n_misses = None if self._cache is None else len(misses)
        return results, n_misses  # type: ignore[return-value]

    def sweep(
        self,
        platform: StarPlatform,
        N: float,
        strategies: Sequence[str] | None = None,
        **params: Any,
    ) -> PlanSweep:
        """Every registered (or the named) strategies on one instance.

        Deterministic by construction: strategy order is sorted by name
        wherever misses are planned, each strategy's plan is independent of the
        others, and planning itself is pure — so serial and remote
        sweeps render identical tables.  The sweep
        records how its own requests fared against the plan cache;
        lookups other sessions make on a shared store do not count.
        """
        names = (
            tuple(sorted(strategies))
            if strategies is not None
            else registry.available("strategy")
        )
        results, misses = self._plan_batch(
            [
                PlanRequest(platform=platform, N=N, strategy=name, params=params)
                for name in names
            ]
        )
        return PlanSweep(
            N=float(N),
            results=dict(zip(names, results)),
            cache_hits=None if misses is None else len(names) - misses,
            cache_misses=misses,
        )

    # -- cache -----------------------------------------------------------

    @property
    def cache(self) -> PlanStore | None:
        """The session's plan store (``None`` when caching is off)."""
        return self._cache

    def cache_stats(self) -> CacheStats | None:
        """Cumulative cache statistics (``None`` when caching is off)."""
        return self._cache.stats if self._cache is not None else None

    def clear_cache(self) -> None:
        """Invalidate every cached plan and reset the statistics."""
        if self._cache is not None:
            self._cache.clear()


#: lazily constructed process-wide session backing the façade helpers
_default_session: PlannerSession | None = None


def default_session() -> PlannerSession:
    """The process-wide session (serial, caching on).

    Backs the :mod:`repro.core.strategies` façade when no explicit
    session is passed.
    """
    global _default_session
    if _default_session is None:
        _default_session = PlannerSession(backend="serial", cache=True)
    return _default_session


def reset_default_session() -> None:
    """Drop the process-wide session (tests, plugin reloads)."""
    global _default_session
    if _default_session is not None:
        _default_session.close()
    _default_session = None
