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
* **defaults** — session-wide default params (e.g. an
  ``imbalance_target`` house style) merge under each request's own;
* **vectorisation** — cache misses that share a strategy (and its
  effective params) are grouped and planned through the strategy's
  batched NumPy kernel when it has one (:mod:`repro.core.vectorize`),
  falling back to scalar planning otherwise; toggled per session
  (``PlannerSession(vectorize=False)``) or per call
  (``plan_batch(requests, vectorize=False)``).

Usage::

    from repro.core.session import PlannerSession

    session = PlannerSession()                       # serial, cached
    sweep = session.sweep(platform, N=10_000)        # all strategies
    sweep = session.sweep(platform, N=10_000)        # same → all hits
    print(sweep.render(), session.cache_stats().render(), sep="\\n")

Results are bit-identical either way: the spec only changes *where*
:func:`repro.core.pipeline.plan_request` runs, never what it computes,
and sweeps iterate in sorted strategy order.

The module-level :func:`default_session` (serial, caching) backs the
façade in :mod:`repro.core.strategies`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, List, Mapping, Sequence

from repro import obs, registry
from repro.core.cache import (
    CacheStats,
    MemoryPlanCache,
    PlanStore,
    cache_from_spec,
    plan_cache_key,
)
from repro.core.pipeline import (
    PlanRequest,
    PlanResult,
    PlanSweep,
    plan_request,
)
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
    vectorize:
        ``True`` (default) routes each batch's cache misses through
        :func:`repro.core.vectorize.plan_batch_requests`, which fuses
        requests sharing a strategy into one NumPy kernel call where
        the strategy supports it (``hom``, ``het`` and ``hom/k`` do);
        ``False`` plans every miss through the scalar
        :func:`~repro.core.pipeline.plan_request`.  Both paths return
        equal plans (bit-identical up to a documented ``rtol = 1e-12``),
        so cached entries are interchangeable; :meth:`plan_batch` and
        :meth:`sweep` can override the session default per call.
    default_params:
        Session-wide strategy params merged *under* each request's own
        (the request wins on conflicts).
    """

    def __init__(
        self,
        backend: str = "serial",
        *,
        cache: bool | str | PlanStore = True,
        vectorize: bool = True,
        **default_params: Any,
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
        self.vectorize = bool(vectorize)
        self.default_params: dict[str, Any] = dict(default_params)

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

        A single request never enters a vector group, so ``plan`` stays
        on the exact scalar codepath whatever the session's
        ``vectorize`` setting.
        """
        return self.plan_batch((request,))[0]

    def plan_batch(
        self,
        requests: Sequence[PlanRequest],
        *,
        vectorize: bool | None = None,
    ) -> List[PlanResult]:
        """Plan many requests; results align with ``requests`` by index.

        Cache lookups happen up front on the calling thread; only the
        misses are planned (here, or on the plan server in one
        ``/plan_batch`` call), and their results are cached on the way
        back.  With vectorisation on (the session default unless
        ``vectorize`` overrides it), misses sharing a strategy are
        fused into one batched kernel call per group, and strategies
        without a kernel fall back to scalar planning.  Cache traffic
        (lookups, misses, stored entries) is identical on both paths.
        """
        use_vectorize = self.vectorize if vectorize is None else bool(vectorize)
        requests = [self._with_defaults(req) for req in requests]
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
            with obs.span(
                "plan_kernel",
                misses=len(misses),
                vectorize=use_vectorize,
            ):
                if use_vectorize:
                    planned = plan_batch_requests(miss_requests, self._client)
                elif self._client is not None:
                    planned = self._client.plan_items(miss_requests)
                else:
                    planned = [plan_request(req) for req in miss_requests]
            for (i, key, _), result in zip(misses, planned):
                if self._cache is not None:
                    self._cache.put(key, result)
                results[i] = result
        return results  # type: ignore[return-value]

    def sweep(
        self,
        platform: StarPlatform,
        N: float,
        strategies: Sequence[str] | None = None,
        vectorize: bool | None = None,
        **params: Any,
    ) -> PlanSweep:
        """Every registered (or the named) strategies on one instance.

        Deterministic by construction: strategy order is sorted by name
        wherever misses are planned, each strategy's plan is independent of the
        others, and planning itself is pure — so serial, remote and
        vectorised sweeps all render identical tables.  The sweep
        records how its requests fared against the plan cache.
        ``vectorize`` overrides the session default for this sweep (a
        sweep holds one request per strategy, so fusion only kicks in
        when strategies repeat — it mainly matters for callers looping
        sweeps through :meth:`plan_batch`).
        """
        names = (
            tuple(sorted(strategies))
            if strategies is not None
            else registry.available("strategy")
        )
        before = self._cache.stats if self._cache is not None else None
        results = self.plan_batch(
            [
                PlanRequest(platform=platform, N=N, strategy=name, params=params)
                for name in names
            ],
            vectorize=vectorize,
        )
        hits = misses = None
        if self._cache is not None and before is not None:
            after = self._cache.stats
            hits = after.hits - before.hits
            misses = after.misses - before.misses
        return PlanSweep(
            N=float(N),
            results=dict(zip(names, results)),
            cache_hits=hits,
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

    # -- helpers ---------------------------------------------------------

    def _with_defaults(self, request: PlanRequest) -> PlanRequest:
        if not self.default_params:
            return request
        merged: Mapping[str, Any] = {
            **self.default_params,
            **dict(request.params),
        }
        if merged == dict(request.params):
            return request
        return replace(request, params=merged)


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
