"""The HTTP plan server: ``repro serve`` (stdlib-only, no new deps).

One process owns a :class:`~repro.core.session.PlannerSession` — with
a memory, sqlite or tiered plan store behind it, or none — and serves
it to the network:

==================  ====  =================================================
endpoint            verb  payload
==================  ====  =================================================
``/healthz``        GET   JSON liveness: status, versions, cache
``/metrics``        GET   JSON per-endpoint counts + latency histograms
``/cache/stats``    GET   JSON :class:`~repro.core.cache.CacheStats` view
``/plan``           POST  envelope(PlanRequest) → envelope(PlanResult)
``/plan_batch``     POST  envelope([PlanRequest | VectorGroup, ...]) →
                          envelope([PlanResult | [PlanResult, ...], ...])
``/cache/get``      POST  envelope(key) → envelope(PlanResult | None)
==================  ====  =================================================

Binary payloads are the binary-v2 envelopes of
:mod:`repro.service.wire` (magic line checked first, nothing is ever
unpickled, wire-version mismatches fail loudly); control/inspection
endpoints are plain JSON so ``curl`` works.  The HTTP protocol itself —
envelope decoding, the 400/500 error mapping, ``/metrics`` as JSON or
Prometheus, ``--max-inflight`` admission (``429`` + ``Retry-After``),
``--log`` access lines and ``--trace`` spans — is the shared front
door's (:mod:`repro.service.frontdoor`); this module supplies the
planning operations behind it.

``/plan`` and ``/plan_batch`` route through the server's session, so
every result a client ever asked for lands in the server's plan store —
that store is the *shared warm cache* many hosts converge on through
``backend="remote:HOST:PORT"``.  Only that planning writes the store:
planning is pure, so a store holding nothing but the server's own plans
can answer any later request from it.  ``/cache/get`` reads it.

Concurrency: the HTTP layer is thread-per-connection
(:class:`http.server.ThreadingHTTPServer`) and the session's store is
wrapped in :class:`~repro.core.cache.ThreadSafePlanStore`; each
handler thread plans its own batch in place (the session is always
``serial``) — so concurrent clients plan concurrently and still see
one consistent cache.  Clients retry only transport-level failures
and 429 refusals — see :mod:`repro.service.client`.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.core.cache import (
    CacheStats,
    MemoryPlanCache,
    PlanStore,
    ThreadSafePlanStore,
    cache_from_spec,
)
from repro.core.pipeline import PlanRequest, PlanResult
from repro.core.session import PlannerSession
from repro.core.vectorize import VectorGroup
from repro import obs
from repro.service.frontdoor import FrontDoor
from repro.service.metrics import AccessLog


def stats_payload(stats: CacheStats | None) -> dict:
    """The JSON view of a store's statistics ``/cache/stats`` serves."""
    if stats is None:
        return {"cache": "off"}
    return {
        "cache": "on",
        "hits": stats.hits,
        "misses": stats.misses,
        "lookups": stats.lookups,
        "hit_rate": stats.hit_rate,
        "entries": stats.entries,
        "max_entries": stats.max_entries,
        "evictions": stats.evictions,
        "tier_hits": {name: hits for name, hits in stats.tier_hits},
    }


class PlanServer(FrontDoor):
    """A planning session behind an HTTP front (see module docstring).

    Parameters mirror :class:`~repro.core.session.PlannerSession`,
    minus ``backend``: a server plans in its own process, on the
    handler thread that received the request.  ``cache`` is any store
    spec — ``sqlite:PATH`` or ``tiered:PATH`` make the shared store
    durable, which is what lets a restarted server keep serving disk
    hits.  ``port=0`` binds an ephemeral port (read it back from
    ``.port`` / the ``repro serve`` banner).  The HTTP protocol, admission,
    metrics, access log and tracing are the shared
    :class:`~repro.service.frontdoor.FrontDoor`'s; this class supplies
    the operations its routes call.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        cache: "bool | str | PlanStore" = True,
        max_inflight: int | None = None,
        access_log: AccessLog | None = None,
        span_recorder: obs.SpanRecorder | None = None,
    ) -> None:
        super().__init__(
            max_inflight=max_inflight,
            access_log=access_log,
            span_recorder=span_recorder,
        )
        # bound before the store opens: a port it cannot listen on
        # leaves no store file behind and no connection open
        self._listen(host, port)
        try:
            if cache is True:
                store: PlanStore | None = MemoryPlanCache()
            elif cache is False or cache is None:
                store = None
            else:
                store = cache_from_spec(cache)
        except Exception:
            self._http.server_close()
            raise
        # handler threads all drive one session; the store is the only
        # mutable state they share, so serialise it and nothing else
        self._store = ThreadSafePlanStore(store) if store is not None else None
        self.session = PlannerSession(
            cache=self._store if self._store is not None else False
        )
        self.cache_spec = cache if isinstance(cache, str) else (
            "off" if store is None else type(store).__name__
        )

    # -- operations the routes call ----------------------------------------

    def store(self) -> PlanStore:
        """The shared store, or a clean error when caching is off."""
        if self._store is None:
            raise ValueError(
                "this plan server runs without a cache (--no-cache); "
                "/cache endpoints are unavailable"
            )
        return self._store

    def plan_items(
        self, items: Sequence["PlanRequest | VectorGroup"]
    ) -> List[Any]:
        """Plan a ``/plan_batch`` item list through the session.

        Answers what :meth:`ServiceClient.plan_items
        <repro.service.client.ServiceClient.plan_items>` expects — a
        :class:`PlanResult` per scalar request, a list per
        :class:`VectorGroup` — through the server session, so every
        planned item lands in (and is served from) the shared store.
        All items are flattened into *one* ``plan_batch`` call, so the
        server may fuse groups the client sent separately (results are
        contract-equal either way).
        """
        flat: List[PlanRequest] = []
        group_sizes: List[int | None] = []
        for item in items:
            if isinstance(item, VectorGroup):
                group_sizes.append(len(item.requests))
                flat.extend(item.requests)
            else:
                group_sizes.append(None)
                flat.append(item)
        results = self.session.plan_batch(flat)
        outputs: List[Any] = []
        position = 0
        for size in group_sizes:
            if size is None:
                outputs.append(results[position])
                position += 1
            else:
                outputs.append(results[position:position + size])
                position += size
        return outputs

    def cache_get(self, key: Any) -> PlanResult | None:
        with obs.span("cache_lookup", endpoint="/cache/get"):
            return self.store().get(key)

    def cache_stats(self) -> dict:
        return stats_payload(self.session.cache_stats())

    def health_payload(self) -> dict:
        return self._health(cache=self.cache_spec)

    def _on_close(self) -> None:
        self.session.close()
        if self._store is not None:
            self._store.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PlanServer {self.url} cache={self.cache_spec!r}>"
