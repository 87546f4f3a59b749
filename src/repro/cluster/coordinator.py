"""The cluster front door: one address fanning out to N plan servers.

:class:`ClusterCoordinator` is wire-compatible with a single
:class:`~repro.service.server.PlanServer` — same endpoints, same
binary-v2 envelopes, same JSON control surface — so every existing
client (``backend="remote:HOST:PORT"``, ``cache="http://HOST:PORT"``,
``repro figure4 --backend remote:...``) scales out by pointing at the
coordinator instead of a worker.  What it adds:

*Dispatch.*  One rule, the paper's demand-driven one (§4.1.1): each
``/plan_batch`` unit goes to the alive worker with the fewest items in
flight, ties broken on URL, with loads bumped tentatively as a pass
places units so one batch spreads instead of dog-piling.  Vectorised
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

*Operability.*  Admission (429 + Retry-After), access logs and tracing
come with the shared front door
(:mod:`repro.service.frontdoor`); ``/metrics`` adds aggregation: the
coordinator serves its own counters plus every worker's, merged
bucket-by-bucket into one cluster-wide histogram.

*Relay.*  Requests are decoded (sharding needs them), planning replies
never are: each worker's ``/plan_batch`` reply is relayed byte for byte
(:mod:`repro.service.wire` ``sub``/``cat`` nodes) and only the client
decodes it.  A worker reply that is not an envelope is a 502.

*Cache routes.*  ``/cache/get`` answers the first hit among the alive
workers, asked in URL order (each probe counts in that worker's
``/cache/stats``), a miss only when every one missed; ``/cache/put``
stores on the least-loaded alive worker.  For one cluster-wide store,
give every worker the same sqlite file (``--cache sqlite:PATH``
without ``{i}``).

Worker membership is the :class:`~repro.cluster.pool.WorkerPool`, the
workers the coordinator was constructed with.  Pull probes of each
worker's ``/healthz`` are the only liveness signal.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Hashable, Iterator, List, Optional, Sequence

from repro import obs
from repro.cluster.pool import WorkerPool
from repro.core.pipeline import PlanRequest, PlanResult
from repro.core.vectorize import VectorGroup
from repro.service import wire
from repro.service.client import (
    PlanServiceError,
    PlanServiceUnavailable,
    ServiceClient,
)
from repro.service.frontdoor import ErrorReply, FrontDoor, Route
from repro.service.metrics import AccessLog, merge_metrics


class NoWorkersError(RuntimeError):
    """No alive worker can take this request (clients see a 503)."""


def _least_loaded(loads: Dict[str, int]) -> str:
    """The worker URL with the fewest in-flight items; ties break on URL.

    ``loads`` maps each alive worker to its load.  The URL tie-break
    makes a pass over an idle pool deterministic: the first unit goes
    to the lowest URL, which then carries load, the next to the
    second, and so on.
    """
    if not loads:
        raise NoWorkersError("no alive workers to dispatch to")
    return min(loads, key=lambda url: (loads[url], url))


class _Unit:
    """One dispatchable piece of a ``/plan_batch``; ``offset`` places a
    :class:`VectorGroup` shard in its group (``None``: shipped whole)."""

    __slots__ = ("item", "offset", "size")

    def __init__(self, item: Any, offset: Optional[int] = None) -> None:
        self.item = item
        self.offset = offset
        #: flat request count, the load unit dispatch balances on
        self.size = len(item.requests) if isinstance(item, VectorGroup) else 1


class ClusterCoordinator(FrontDoor):
    """HTTP front door for a pool of plan-server replicas.

    ``workers`` is the pool, fixed for the coordinator's lifetime;
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
            max_inflight=max_inflight,
            retry_after=retry_after,
            access_log=access_log,
            span_recorder=span_recorder,
        )
        if max_reroutes < 0:
            raise ValueError(f"max_reroutes must be >= 0, got {max_reroutes}")
        self.pool = WorkerPool(max_missed=max_missed)
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

    def _units(self, items: Sequence[Any]) -> List[_Unit]:
        """Cut a ``/plan_batch`` into dispatchable units, in item order;
        a sharded :class:`VectorGroup`'s shards follow in offset order."""
        n_alive = max(1, len(self.pool.alive()))
        units: List[_Unit] = []
        for item in items:
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
                    units.append(_Unit(shard, offset))
                    offset += size
            else:
                units.append(_Unit(item))
        return units

    def plan(self, request: PlanRequest) -> wire.Relayed:
        return self.plan_items([request])[0]

    def plan_items(self, items: Sequence[Any]) -> List[Any]:
        """Plan a ``/plan_batch`` item list across the worker pool.

        The answer decodes to what
        :meth:`repro.service.server.PlanServer.plan_items` answers — a
        :class:`PlanResult` per scalar item, a result list per
        :class:`VectorGroup` — as :class:`~repro.service.wire.Relayed`
        references into the workers' replies, a sharded group's joined
        (:class:`~repro.service.wire.Joined`); see the module docstring.
        """
        units = self._units(items)
        if not units:
            return []
        unit_results: List[Any] = [None] * len(units)
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
            loads = {w.url: w.load for w in alive}
            assignment: Dict[str, List[int]] = {}
            for uid in pending:
                url = _least_loaded(loads)
                # tentative load so one pass spreads the whole batch
                loads[url] += units[uid].size
                assignment.setdefault(url, []).append(uid)
            failed: List[int] = []
            errors: List[Exception] = []
            lock = threading.Lock()

            def ship(
                url: str, uids: List[int], round_no: int = round_no
            ) -> None:
                payload = [units[u].item for u in uids]
                weight = sum(units[u].size for u in uids)
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
                    body = self._client(url).post_raw(
                        "/plan_batch", payload, trace=hop_ctx
                    )
                    if not body.startswith(wire.WIRE_MAGIC):
                        raise PlanServiceError(
                            f"{url} answered no envelope", code=502
                        )
                    with lock:
                        for j, u in enumerate(uids):
                            unit_results[u] = wire.Relayed(body, j)
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
        # reassemble: a sharded group joins its shards in offset order
        with obs.span("reassemble", units=len(units)):
            answer: List[Any] = []
            for unit, out in zip(units, unit_results):
                if unit.offset is None:
                    answer.append(out)
                elif unit.offset == 0:
                    answer.append(wire.Joined([out]))
                else:
                    answer[-1].parts.append(out)
        return answer

    # -- cache proxying ---------------------------------------------------

    def _each_alive(self, call) -> Iterator[tuple[str, Any]]:
        """``(url, call(client))`` per alive worker, in URL order; an
        unreachable worker is marked dead and skipped."""
        for worker in sorted(self.pool.alive(), key=lambda w: w.url):
            try:
                answer = call(self._client(worker.url))
            except PlanServiceUnavailable as exc:
                self.pool.mark_dead(worker.url, f"unreachable: {exc}")
                continue
            yield worker.url, answer

    def cache_get(self, key: Hashable) -> Optional[PlanResult]:
        """The first alive worker's hit; a miss only if every one missed."""
        answered = False
        for _, hit in self._each_alive(lambda c: c.cache_get(key)):
            if hit is not None:
                return hit
            answered = True
        if not answered:
            raise NoWorkersError("no alive worker answered /cache/get")
        return None

    def cache_put(self, key: Hashable, result: PlanResult) -> None:
        for _ in range(self.max_reroutes + 1):
            url = _least_loaded({w.url: w.load for w in self.pool.alive()})
            try:
                return self._client(url).cache_put(key, result)
            except PlanServiceUnavailable as exc:
                self.pool.mark_dead(url, f"unreachable: {exc}")
        raise NoWorkersError(
            f"cache request unplaced after {self.max_reroutes + 1} round(s)"
        )

    def cache_clear(self) -> dict:
        """Clear every alive worker's store; report how many answered."""
        if not self.pool.alive():
            raise NoWorkersError("no alive workers to clear")
        cleared = len(list(self._each_alive(lambda c: c.cache_clear())))
        return {"cleared": True, "workers_cleared": cleared}

    def cache_stats(self) -> dict:
        """Aggregate ``/cache/stats`` across workers.

        The summed view keeps the single-server payload shape (clients
        like :class:`~repro.service.client.HTTPPlanCache` parse it
        unchanged) and adds a per-worker breakdown under ``workers``.
        """
        per_worker = dict(self._each_alive(lambda c: c.cache_stats()))
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
            workers_alive=snapshot["alive"],
            workers_total=snapshot["total"],
        )

    def status_payload(self) -> dict:
        return {
            "role": "coordinator",
            "url": self.url,
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
            f"<ClusterCoordinator {self.url} "
            f"workers={snapshot['alive']}/{snapshot['total']}>"
        )
