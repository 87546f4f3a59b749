"""The cluster front door: one address fanning out to N plan servers.

:class:`ClusterCoordinator` is wire-compatible with a single
:class:`~repro.service.server.PlanServer` — same endpoints, same v1/v2
envelope profiles, same JSON control surface — so every existing
client (``backend="remote:HOST:PORT"``, ``cache="http://HOST:PORT"``,
``repro figure4 --backend remote:...``) scales out by pointing at the
coordinator instead of a worker.  What it adds:

*Dispatch.*  ``/plan_batch`` items are assigned to alive workers by a
pluggable :class:`~repro.cluster.dispatch.DispatchPolicy`.  Vectorised
:class:`~repro.core.vectorize.VectorGroup` items (a whole sweep fused
client-side into one item) are first *sharded* into per-worker
sub-groups — otherwise one worker would plan the entire sweep while
the rest idle.  The vectorise equivalence contract (bit-identical to
rtol=1e-12 regardless of grouping) is exactly what makes sharding
invisible to clients.

*Fault tolerance.*  A shipped sub-batch that hits a transport failure
(:class:`~repro.service.client.PlanServiceUnavailable` — the worker
could not be reached at all) marks that worker dead immediately and
the failed items are re-dispatched to the survivors, up to
``max_reroutes`` rounds.  Planning is pure, so re-planning a rerouted
item on another replica returns the identical result — the
coordinator's answer after a mid-batch worker death is bit-identical
to an undisturbed run.  An *answered* worker error (a 400/500 with a
message) is relayed to the client unchanged: the worker is alive and
retrying elsewhere would mask a real bug.

*Operability.*  Admission (429 + Retry-After), wire modes, access logs
and tracing come with the shared front door
(:mod:`repro.service.frontdoor`); ``/metrics`` adds aggregation: the
coordinator serves its own counters plus every worker's, merged
bucket-by-bucket into one cluster-wide histogram.

Worker membership is the :class:`~repro.cluster.pool.WorkerPool`:
seeded at construction, extended by POST ``/workers/register``, kept
honest by pull heartbeats and POST ``/workers/heartbeat``.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro import obs
from repro.cluster.dispatch import (
    Candidate,
    DispatchPolicy,
    dispatch_from_spec,
    item_digest,
)
from repro.cluster.pool import WorkerPool
from repro.core.pipeline import PlanRequest, PlanResult
from repro.core.vectorize import VectorGroup
from repro.service.client import (
    PlanServiceError,
    PlanServiceUnavailable,
    ServiceClient,
)
from repro.service.frontdoor import ErrorReply, FrontDoor, Route
from repro.service.metrics import AccessLog, merge_metrics


class NoWorkersError(RuntimeError):
    """No alive worker can take this request (clients see a 503)."""


class _Unit:
    """One dispatchable piece of a ``/plan_batch``: item + reassembly slot.

    ``index`` is the position in the client's item list; for a sharded
    :class:`VectorGroup`, ``offset``/``size`` locate this shard's
    results inside the original group's result list.
    """

    __slots__ = ("item", "index", "offset", "size", "digest", "weight")

    def __init__(
        self, item: Any, index: int, offset: Optional[int] = None
    ) -> None:
        self.item = item
        self.index = index
        self.offset = offset
        self.size = len(item.requests) if isinstance(item, VectorGroup) else 1
        self.digest = item_digest(item)
        #: flat request count, the load unit dispatch balances on
        self.weight = self.size


class ClusterCoordinator(FrontDoor):
    """HTTP front door for a pool of plan-server replicas.

    ``workers`` seeds the pool (more can register later);
    ``dispatch`` is a policy spec or instance
    (:func:`~repro.cluster.dispatch.dispatch_from_spec`);
    ``max_inflight`` bounds concurrent planning requests cluster-wide
    (429 + Retry-After beyond it); ``heartbeat_interval`` /
    ``max_missed`` tune the pull-heartbeat monitor; ``max_reroutes``
    bounds how many times a failed sub-batch is re-dispatched before
    the client sees a 503.

    The HTTP protocol is the shared
    :class:`~repro.service.frontdoor.FrontDoor`'s; this class supplies
    the operations, the control-plane routes and the 503/502 error
    mappings.  Use as a context manager or call :meth:`close`;
    :meth:`start` runs the accept loop and the heartbeat monitor on
    daemon threads.
    """

    role = "coordinator"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: Sequence[str] = (),
        dispatch: "str | DispatchPolicy" = "least-loaded",
        wire_mode: str = "auto",
        max_inflight: int | None = None,
        retry_after: float = 0.5,
        heartbeat_interval: float = 1.0,
        max_missed: int = 2,
        max_reroutes: int = 3,
        worker_timeout: float = 60.0,
        access_log: AccessLog | None = None,
        span_recorder: obs.SpanRecorder | None = None,
    ) -> None:
        super().__init__(
            wire_mode=wire_mode,
            max_inflight=max_inflight,
            retry_after=retry_after,
            access_log=access_log,
            span_recorder=span_recorder,
        )
        if max_reroutes < 0:
            raise ValueError(f"max_reroutes must be >= 0, got {max_reroutes}")
        self.pool = WorkerPool(max_missed=max_missed)
        self.dispatch = dispatch_from_spec(dispatch)
        self.heartbeat_interval = float(heartbeat_interval)
        self.max_reroutes = int(max_reroutes)
        self.worker_timeout = float(worker_timeout)
        self._clients: Dict[str, ServiceClient] = {}
        self._clients_lock = threading.Lock()
        for url in workers:
            self.pool.register(url)
        self._listen(host, port)

    # -- what the front door needs beyond the shared routes ---------------

    def route_table(self) -> Dict[str, Route]:
        return {
            **super().route_table(),
            "/cluster/status": Route("GET", self.status_payload),
            "/workers/register": Route(
                "POST", self._register_route, "json", wire=False
            ),
            "/workers/heartbeat": Route(
                "POST", self._heartbeat_route, "json", wire=False
            ),
            "/cluster/shutdown": Route(
                "POST", self._shutdown_route, wire=False
            ),
        }

    def error_reply(self, exc: Exception) -> ErrorReply | None:
        if isinstance(exc, NoWorkersError):
            retry_after = self.admission.retry_after
            return (
                503,
                {"error": str(exc), "retry_after": retry_after},
                {"Retry-After": f"{retry_after:g}"},
            )
        if isinstance(exc, PlanServiceError):
            # a worker *answered* with an error; relay it truthfully
            code = exc.code if exc.code and 400 <= exc.code < 600 else 502
            return code, {"error": f"worker error: {exc}"}, {}
        return None

    def _register_route(self, payload: dict) -> dict:
        info = self.pool.register(str(payload.get("url", "")))
        return {"registered": True, "id": info.id, "url": info.url}

    def _heartbeat_route(self, payload: dict) -> dict:
        info = self.pool.heartbeat(str(payload.get("url", "")))
        return {"alive": info.alive, "id": info.id, "url": info.url}

    def _shutdown_route(self) -> dict:
        # close() runs on its own thread and first waits for the accept
        # loop to stop, so this acknowledgement still goes out
        self.request_shutdown()
        return {"stopping": True}

    # -- worker clients ---------------------------------------------------

    def _client(self, url: str) -> ServiceClient:
        """The cached envelope client for one worker.

        Handler and dispatch threads share its connection pool.
        ``retries=1`` with a short wait: one quick transport retry
        absorbs a worker mid-restart, anything worse escalates to the
        reroute path (which has the whole pool to fall back on).
        """
        with self._clients_lock:
            client = self._clients.get(url)
            if client is None:
                client = self._clients[url] = ServiceClient(
                    url,
                    timeout=self.worker_timeout,
                    retries=1,
                    retry_wait=0.1,
                )
            return client

    def _probe(self, url: str) -> bool:
        """One pull-heartbeat: does the worker answer ``/healthz``?"""
        with ServiceClient(
            url, timeout=max(1.0, self.heartbeat_interval), retries=0
        ) as probe:
            try:
                return probe.healthz().get("status") == "ok"
            except Exception:
                return False

    # -- dispatch ---------------------------------------------------------

    def _units(self, items: Sequence[Any]) -> Tuple[List[_Unit], List[Any]]:
        """Cut a ``/plan_batch`` into dispatchable units.

        Returns the units plus a results skeleton: ``None`` per scalar
        slot, a pre-sized list per VectorGroup slot that sharded units
        fill by offset.
        """
        n_alive = max(1, len(self.pool.alive()))
        units: List[_Unit] = []
        skeleton: List[Any] = []
        for index, item in enumerate(items):
            if (
                isinstance(item, VectorGroup)
                and n_alive > 1
                and len(item.requests) > 1
            ):
                requests = item.requests
                shards = min(n_alive, len(requests))
                # ceil-balanced contiguous slices preserve order
                base, extra = divmod(len(requests), shards)
                offset = 0
                for s in range(shards):
                    size = base + (1 if s < extra else 0)
                    shard = VectorGroup(
                        strategy=item.strategy,
                        requests=requests[offset:offset + size],
                    )
                    units.append(_Unit(shard, index, offset))
                    offset += size
                skeleton.append([None] * len(requests))
            else:
                units.append(_Unit(item, index))
                skeleton.append(None)
        return units, skeleton

    def plan(self, request: PlanRequest) -> PlanResult:
        return self.plan_items([request])[0]

    def plan_items(self, items: Sequence[Any]) -> List[Any]:
        """Plan a ``/plan_batch`` item list across the worker pool.

        Same in/out contract as
        :meth:`repro.service.server.PlanServer.plan_items` — a
        :class:`PlanResult` per scalar item, a result list per
        :class:`VectorGroup` — so the coordinator is a drop-in server
        to every client.  Dispatch, sharding, and rerouting happen
        here; see the module docstring for the failure semantics.
        """
        units, skeleton = self._units(items)
        if not units:
            return []
        unit_results: List[Any] = [None] * len(units)
        done = [False] * len(units)
        pending = list(range(len(units)))
        # capture the handler thread's ambient trace once: ship() runs
        # on bare dispatch threads where context-locals don't follow,
        # so hops record through the explicit API with the coordinator
        # root span as parent — reroute rounds included, which is what
        # keeps a dead worker's resent units on the original trace id
        active = obs.current()
        for round_no in range(self.max_reroutes + 1):
            if not pending:
                break
            alive = self.pool.alive()
            if not alive:
                raise NoWorkersError(
                    "no alive workers in the pool "
                    f"({len(self.pool.workers())} registered, all dead)"
                )
            candidates = {w.url: Candidate(w.url, w.load) for w in alive}
            pool_view = list(candidates.values())
            assignment: Dict[str, List[int]] = {}
            for uid in pending:
                chosen = self.dispatch.choose(units[uid].digest, pool_view)
                # tentative load so one pass spreads the whole batch
                chosen.load += units[uid].weight
                assignment.setdefault(chosen.url, []).append(uid)
            failed: List[int] = []
            errors: List[Exception] = []
            lock = threading.Lock()

            def ship(
                url: str, uids: List[int], round_no: int = round_no
            ) -> None:
                payload = [units[u].item for u in uids]
                weight = sum(units[u].weight for u in uids)
                self.pool.acquire(url, weight)
                hop_ctx: Optional[obs.TraceContext] = None
                hop_span = None
                if active is not None:
                    # the dispatch span covers ship + worker + wait; the
                    # forwarded child context carries its span id so the
                    # worker's own root span parents to this hop
                    hop_span = active.recorder.span(
                        active.trace_id,
                        "dispatch",
                        parent_id=active.current_span_id,
                        worker=url,
                        items=len(uids),
                        round=round_no,
                    )
                    span = hop_span.__enter__()
                    hop_ctx = obs.TraceContext(
                        trace_id=active.trace_id,
                        span_id=span.span_id,
                        sampled=True,
                    )
                    span.meta["outcome"] = "ok"
                try:
                    outputs = self._client(url).plan_items(
                        payload, trace=hop_ctx
                    )
                    with lock:
                        for u, out in zip(uids, outputs):
                            unit_results[u] = out
                            done[u] = True
                except PlanServiceUnavailable as exc:
                    if hop_span is not None:
                        span.meta["outcome"] = "unreachable"
                    self.pool.mark_dead(url, f"unreachable: {exc}")
                    with lock:
                        failed.extend(uids)
                except Exception as exc:
                    if hop_span is not None:
                        span.meta["outcome"] = "error"
                    with lock:
                        errors.append(exc)
                finally:
                    if hop_span is not None:
                        # the span records on exit, failures included —
                        # a chaos-killed worker still leaves its hop
                        hop_span.__exit__(None, None, None)
                    self.pool.release(url, weight)

            if len(assignment) == 1:
                url, uids = next(iter(assignment.items()))
                ship(url, uids)
            else:
                threads = [
                    threading.Thread(
                        target=ship, args=(url, uids), daemon=True
                    )
                    for url, uids in assignment.items()
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            if errors:
                raise errors[0]
            pending = failed
        if pending:
            raise NoWorkersError(
                f"{len(pending)} batch item(s) still unplaced after "
                f"{self.max_reroutes + 1} dispatch round(s); "
                "workers keep dying faster than they rejoin"
            )
        # reassemble: shards fill their group's slots by offset
        with obs.span("reassemble", units=len(units)):
            for uid, unit in enumerate(units):
                out = unit_results[uid]
                if unit.offset is None:
                    skeleton[unit.index] = out
                else:
                    skeleton[unit.index][
                        unit.offset:unit.offset + unit.size
                    ] = out
        return skeleton

    # -- cache proxying ---------------------------------------------------

    def _route_cache(self, key: Hashable, call) -> Any:
        """Run one cache op on the worker owning ``key``, with reroute.

        The same digest routes ``/plan`` and ``/cache/*`` (see
        :func:`~repro.cluster.dispatch.item_digest`), so under
        ``consistent-hash`` an entry is looked up on the worker that
        planned it.
        """
        digest = item_digest(key)
        for _ in range(self.max_reroutes + 1):
            alive = self.pool.alive()
            if not alive:
                raise NoWorkersError("no alive workers for cache request")
            chosen = self.dispatch.choose(
                digest, [Candidate(w.url, w.load) for w in alive]
            )
            try:
                return call(self._client(chosen.url))
            except PlanServiceUnavailable as exc:
                self.pool.mark_dead(chosen.url, f"unreachable: {exc}")
        raise NoWorkersError(
            f"cache request unplaced after {self.max_reroutes + 1} round(s)"
        )

    def cache_get(self, key: Hashable) -> Optional[PlanResult]:
        return self._route_cache(key, lambda c: c.cache_get(key))

    def cache_put(self, key: Hashable, result: PlanResult) -> None:
        self._route_cache(key, lambda c: c.cache_put(key, result))

    def cache_clear(self) -> dict:
        """Clear every alive worker's store; report how many answered."""
        cleared = 0
        alive = self.pool.alive()
        if not alive:
            raise NoWorkersError("no alive workers to clear")
        for worker in alive:
            try:
                self._client(worker.url).cache_clear()
                cleared += 1
            except PlanServiceUnavailable as exc:
                self.pool.mark_dead(worker.url, f"unreachable: {exc}")
        return {"cleared": True, "workers_cleared": cleared}

    def cache_stats(self) -> dict:
        """Aggregate ``/cache/stats`` across workers.

        The summed view keeps the single-server payload shape (clients
        like :class:`~repro.service.client.HTTPPlanCache` parse it
        unchanged) and adds a per-worker breakdown under ``workers``.
        """
        per_worker: Dict[str, dict] = {}
        for worker in self.pool.alive():
            try:
                per_worker[worker.url] = self._client(worker.url).cache_stats()
            except PlanServiceUnavailable as exc:
                self.pool.mark_dead(worker.url, f"unreachable: {exc}")
        live = {
            url: payload
            for url, payload in per_worker.items()
            if payload.get("cache") == "on"
        }
        if not live:
            return {"cache": "off", "workers": per_worker}
        totals = {
            "cache": "on",
            "hits": 0,
            "misses": 0,
            "entries": 0,
            "max_entries": 0,
            "evictions": 0,
            "tier_hits": {},
        }
        for payload in live.values():
            for field in ("hits", "misses", "entries", "max_entries", "evictions"):
                totals[field] += int(payload.get(field, 0))
            for tier, hits in payload.get("tier_hits", {}).items():
                totals["tier_hits"][tier] = (
                    totals["tier_hits"].get(tier, 0) + int(hits)
                )
        lookups = totals["hits"] + totals["misses"]
        totals["lookups"] = lookups
        totals["hit_rate"] = totals["hits"] / lookups if lookups else 0.0
        totals["workers"] = per_worker
        return totals

    # -- control-plane payloads -------------------------------------------

    def health_payload(self) -> dict:
        snapshot = self.pool.snapshot()
        return self._health(
            role="coordinator",
            dispatch=self.dispatch.name,
            workers_alive=snapshot["alive"],
            workers_total=snapshot["total"],
        )

    def status_payload(self) -> dict:
        return {
            "role": "coordinator",
            "url": self.url,
            "dispatch": self.dispatch.name,
            "max_reroutes": self.max_reroutes,
            "heartbeat_interval": self.heartbeat_interval,
            "admission": {
                "limit": self.admission.limit,
                "inflight": self.admission.inflight,
                "retry_after": self.admission.retry_after,
            },
            "pool": self.pool.snapshot(),
        }

    def metrics_payload(self) -> dict:
        """Own counters + per-worker payloads + the cluster-wide merge."""
        per_worker: Dict[str, dict] = {}
        mergeable: List[dict] = []
        for worker in self.pool.workers():
            try:
                payload = self._client(worker.url).get_json("/metrics")
                per_worker[worker.url] = payload
                mergeable.append(payload)
            except PlanServiceError as exc:
                per_worker[worker.url] = {"unreachable": str(exc)}
        return {
            "role": "coordinator",
            "coordinator": self.metrics.payload(),
            "workers": per_worker,
            "cluster": merge_metrics(mergeable),
        }

    def prometheus_view(self, payload: dict) -> dict:
        """The merged cluster histogram: what a scraper alerting on
        cluster-wide latency wants, from one scrape target."""
        return payload["cluster"]

    # -- lifecycle --------------------------------------------------------

    def _on_start(self) -> None:
        self.pool.start_monitor(self._probe, self.heartbeat_interval)

    def _on_close(self) -> None:
        self.pool.stop_monitor()
        with self._clients_lock:
            clients = list(self._clients.values())
        for client in clients:
            client.close()

    def join(self, timeout: float | None = None) -> None:
        """Block until the accept loop stops (the CLI's foreground wait)."""
        if self._thread is not None:
            self._thread.join(timeout)

    def request_shutdown(self) -> None:
        """Stop serving soon, from a handler thread (``/cluster/shutdown``)."""
        threading.Thread(target=self.close, daemon=True).start()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        snapshot = self.pool.snapshot()
        return (
            f"<ClusterCoordinator {self.url} dispatch={self.dispatch.name!r} "
            f"workers={snapshot['alive']}/{snapshot['total']}>"
        )
