"""The ``--trace 1`` run: per-layer costs of one workload.

Three sources, all on the workload's own seeded inputs:

1. The same low-rate stream replayed twice, first against an untraced
   server, then against one started with ``--trace`` while the client
   samples every op.  The difference of their p50s is the tracing
   overhead; the untraced replay also gives the low-rate tail
   latencies, the load generator's validity gauges, the ``/healthz`` round trip
   and, on a cluster, the proxy overhead and worker skew.
2. Server-side self times from the traced replay's spans, assembled by
   ``repro.obs`` into one tree per op (client root, server or
   coordinator root, the seams under it).  A span's self time is its
   duration minus what its children cover.
3. Benchmark-side timings of each layer's public functions: client
   and wire codecs, cache keying, stores, vector grouping and the
   strategy kernels.  Each is the median over repeated passes of the
   mean per-call time in one pass.

Layers a workload does not reach report 0 (no spans, no counts).
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro import obs, registry
from repro.core.cache import (
    MemoryPlanCache,
    SQLitePlanCache,
    ThreadSafePlanStore,
    encode_key,
    plan_cache_key,
)
from repro.core.pipeline import PlanRequest, plan_request, supported_kwargs
from repro.core.vectorize import VectorGroup, group_key, plan_batch_requests
from repro.service import wire

from driver import THREADS, make_client, quantile
from gate import served_plans
from workloads import PHASE_LAYERS, PHASE_TRACE, Op

#: every per-layer metric and its unit
UNITS = {
    "client.pack_us": "us",
    "client.unpack_us": "us",
    "http.healthz_rtt_us": "us",
    "server.residual_us": "us",
    "server.residual_p99_us": "us",
    "wire.request_bytes": "bytes",
    "wire.response_bytes": "bytes",
    "wire.pack_v2_us.result": "us",
    "wire.unpack_v2_us.result": "us",
    "wire.pack_v2_us.batch": "us",
    "wire.unpack_v2_us.batch": "us",
    "server.wire_decode_us": "us",
    "server.cache_lookup_us": "us",
    "server.plan_kernel_us": "us",
    "server.plan_kernel_p99_us": "us",
    "server.wire_encode_us": "us",
    "server.handler_self_us": "us",
    "server.hit_ratio": "ratio",
    "cache.plan_cache_key_us": "us",
    "cache.supported_kwargs_us": "us",
    "cache.encode_key_us": "us",
    "store.memory_get_us": "us",
    "store.threadsafe_get_us": "us",
    "store.sqlite_get_us": "us",
    "store.sqlite_put_us": "us",
    "store.sqlite_get_contended_us": "us",
    "vectorize.group_key_us": "us",
    "vectorize.fused_share": "ratio",
    "vectorize.mean_group_size": "count",
    "kernel.het.scalar_us": "us",
    "kernel.hom.scalar_us": "us",
    "kernel.hom-k.scalar_us": "us",
    "kernel.het.batch_us_per_plan": "us",
    "kernel.hom.batch_us_per_plan": "us",
    "kernel.hom-k.batch_us_per_plan": "us",
    "cluster.proxy_overhead_us": "us",
    "cluster.dispatch_us": "us",
    "cluster.reassemble_us": "us",
    "cluster.worker_skew": "ratio",
    "cluster.reroutes": "count",
    "obs.tracing_overhead_pct": "%",
    "latency.p95_ms.low": "ms",
    "latency.p99_ms.low": "ms",
    "driver.lag_p99_ms": "ms",
    "driver.achieved_ratio": "ratio",
    "error_rate": "ratio",
}

#: strategy name -> metric key
KERNELS = {"het": "het", "hom": "hom", "hom/k": "hom-k"}
#: requests in one kernel-timing batch (the group a server session fuses)
KERNEL_BATCH = 8
#: ops whose payloads and answers feed the codec and keying timings
LAYER_OPS = 48


def per_call_us(fn: Callable[[Any], Any], items: Sequence[Any], budget_s: float) -> float:
    """Median over passes of the mean time of ``fn(item)``, in µs."""
    passes: List[float] = []
    deadline = time.perf_counter() + budget_s
    while len(passes) < 3 or (time.perf_counter() < deadline and len(passes) < 2000):
        began = time.perf_counter()
        for item in items:
            fn(item)
        passes.append((time.perf_counter() - began) / len(items))
    return statistics.median(passes) * 1e6


# -- spans ------------------------------------------------------------------


def _self_s(trace: obs.Trace, span: obs.Span) -> float:
    """``span``'s duration minus the merged intervals its children cover."""
    intervals = sorted(
        (max(c.start_s, span.start_s), min(c.end_s, span.end_s))
        for c in trace.span_children(span)
    )
    covered, lo, hi = 0.0, None, 0.0
    for start, end in intervals:
        if lo is None or start > hi:
            if lo is not None:
                covered += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    if lo is not None:
        covered += hi - lo
    return max(0.0, span.duration_s - covered)


def span_metrics(traces: List[obs.Trace]) -> Dict[str, float]:
    """Per-op server and coordinator self times from assembled traces."""
    n = max(1, len(traces))
    total: Dict[str, float] = defaultdict(float)
    kernels: List[float] = []
    residuals: List[float] = []
    reroutes = 0
    for trace in traces:
        root = trace.root
        for span in trace.spans:
            stage = span.name.split(" ")[0]
            total[f"{span.service}.{stage}"] += _self_s(trace, span)
            if span.name == "plan_kernel":
                kernels.append(span.duration_s)
            if span.name == "dispatch" and int(span.meta.get("round", 0)) > 0:
                reroutes += 1
        front = trace.span_children(root) if root is not None else []
        if root is not None and root.service == "client" and front:
            residuals.append(root.duration_s - front[0].duration_s)
    residuals.sort()
    kernels.sort()
    us = 1e6 / n
    return {
        "server.wire_decode_us": total["server.wire_decode"] * us,
        "server.cache_lookup_us": total["server.cache_lookup"] * us,
        "server.plan_kernel_us": total["server.plan_kernel"] * us,
        "server.plan_kernel_p99_us": (quantile(kernels, 0.99) * 1e6) if kernels else 0.0,
        "server.wire_encode_us": total["server.wire_encode"] * us,
        "server.handler_self_us": total["server.server"] * us,
        "server.residual_us": (statistics.fmean(residuals) * 1e6) if residuals else 0.0,
        "server.residual_p99_us": (quantile(residuals, 0.99) * 1e6) if residuals else 0.0,
        "cluster.dispatch_us": total["coordinator.dispatch"] * us,
        "cluster.reassemble_us": total["coordinator.reassemble"] * us,
        "cluster.reroutes": float(reroutes),
    }


# -- what the servers see ------------------------------------------------------


def served_batches(op: Op, workers: int) -> List[List[PlanRequest]]:
    """The request lists one op hands to server sessions' ``plan_batch``.

    A coordinator shards a VectorGroup into contiguous, ceil-balanced
    slices, one per worker, as ``cluster.coordinator`` does.
    """
    if op.kind == "cache_get":
        return []
    if op.kind == "plan":
        return [[op.payload]]
    batches: List[List[PlanRequest]] = []
    flat: List[PlanRequest] = []
    for item in op.payload:
        if isinstance(item, VectorGroup) and workers > 1:
            base, extra = divmod(len(item.requests), workers)
            offset = 0
            for s in range(workers):
                size = base + (1 if s < extra else 0)
                batches.append(list(item.requests[offset:offset + size]))
                offset += size
        elif isinstance(item, VectorGroup):
            flat.extend(item.requests)
        else:
            flat.append(item)
    if flat:
        batches.append(flat)
    return batches


def grouping(ops: List[Op], warm: Sequence[PlanRequest], workers: int) -> Dict[str, float]:
    """Share of missed requests planned in a fused group, and group size."""
    warm_ids = {id(r) for r in warm}
    missed = fused = 0
    sizes: List[int] = []
    for op in ops:
        for batch in served_batches(op, workers):
            groups: Dict[Any, int] = defaultdict(int)
            for request in batch:
                if id(request) in warm_ids:
                    continue
                missed += 1
                factory = registry.get("strategy", request.strategy)
                groups[group_key(request, factory)] += 1
            for size in groups.values():
                if size >= 2:
                    fused += size
                    sizes.append(size)
    return {
        "vectorize.fused_share": fused / missed if missed else 0.0,
        "vectorize.mean_group_size": statistics.fmean(sizes) if sizes else 0.0,
    }


def answers(ops: List[Op]) -> List[Any]:
    """What the server answers each op with, planned locally in one batch."""
    requests = [r for op in ops for r in op.requests]
    planned = iter(plan_batch_requests(requests))
    out: List[Any] = []
    for op in ops:
        if op.kind != "plan_batch":
            out.append(next(planned))
            continue
        answer: List[Any] = []
        for item in op.payload:
            if isinstance(item, VectorGroup):
                answer.append([next(planned) for _ in item.requests])
            else:
                answer.append(next(planned))
        out.append(answer)
    return out


# -- benchmark-side layer timings ----------------------------------------------


def codec_and_keying(ops: List[Op], budget: float) -> Tuple[Dict[str, float], List[Any], List[Any]]:
    """Codec, keying and grouping timings; also the keys and plans made."""
    replies = answers(ops)
    requests = [r for op in ops for r in op.requests]
    factories = [registry.get("strategy", r.strategy) for r in requests]
    pairs = list(zip(requests, factories))
    keys = [plan_cache_key(r, f) for r, f in pairs]
    request_bodies = [wire.pack_v2(op.payload) for op in ops]
    reply_bodies = [wire.pack_v2(reply) for reply in replies]
    results = [r for op, reply in zip(ops, replies) for r in served_plans(op, reply)]
    batches = [reply for op, reply in zip(ops, replies) if op.kind == "plan_batch"]
    result_bodies = [wire.pack_v2(r) for r in results]
    batch_bodies = [wire.pack_v2(b) for b in batches]
    binary = wire.PROFILE_BINARY
    return {
        "client.pack_us": per_call_us(lambda op: wire.pack_as(op.payload, binary), ops, budget),
        "client.unpack_us": per_call_us(wire.unpack_any, reply_bodies, budget),
        "wire.request_bytes": statistics.fmean(len(b) for b in request_bodies),
        "wire.response_bytes": statistics.fmean(len(b) for b in reply_bodies),
        "wire.pack_v2_us.result": per_call_us(wire.pack_v2, results, budget),
        "wire.unpack_v2_us.result": per_call_us(wire.unpack_v2, result_bodies, budget),
        "wire.pack_v2_us.batch": per_call_us(wire.pack_v2, batches, budget),
        "wire.unpack_v2_us.batch": per_call_us(wire.unpack_v2, batch_bodies, budget),
        "cache.plan_cache_key_us": per_call_us(lambda rf: plan_cache_key(*rf), pairs, budget),
        "cache.supported_kwargs_us": per_call_us(
            lambda rf: supported_kwargs(rf[1], rf[0].params), pairs, budget
        ),
        "cache.encode_key_us": per_call_us(encode_key, keys, budget),
        "vectorize.group_key_us": per_call_us(lambda rf: group_key(*rf), pairs, budget),
    }, keys, results


def stores(keys: List[Any], results: List[Any], path: str, threads: int,
           budget: float) -> Dict[str, float]:
    values = [results[i % len(results)] for i in range(len(keys))]
    memory = MemoryPlanCache(max_entries=max(len(keys), 1))
    locked = ThreadSafePlanStore(MemoryPlanCache(max_entries=max(len(keys), 1)))
    sqlite = SQLitePlanCache(path)
    try:
        for key, value in zip(keys, values):
            memory.put(key, value)
            locked.put(key, value)
        out = {
            "store.sqlite_put_us": per_call_us(
                lambda kv: sqlite.put(*kv), list(zip(keys, values)), budget
            ),
            "store.memory_get_us": per_call_us(memory.get, keys, budget),
            "store.threadsafe_get_us": per_call_us(locked.get, keys, budget),
            "store.sqlite_get_us": per_call_us(sqlite.get, keys, budget),
        }
        shared = ThreadSafePlanStore(sqlite)
        counts = [0] * threads
        deadline = time.perf_counter() + budget

        def reader(slot: int) -> None:
            while time.perf_counter() < deadline:
                for key in keys:
                    shared.get(key)
                counts[slot] += len(keys)

        began = time.perf_counter()
        workers = [threading.Thread(target=reader, args=(i,)) for i in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        elapsed = time.perf_counter() - began
        out["store.sqlite_get_contended_us"] = elapsed * threads / max(1, sum(counts)) * 1e6
        return out
    finally:
        sqlite.close()


def kernels(run: Any, budget: float) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for offset, (strategy, key) in enumerate(KERNELS.items()):
        group = run.inputs.group(PHASE_LAYERS + 1 + offset, strategy, KERNEL_BATCH)
        out[f"kernel.{key}.scalar_us"] = per_call_us(plan_request, group[:2], budget)
        out[f"kernel.{key}.batch_us_per_plan"] = per_call_us(
            plan_batch_requests, [group], budget
        ) / len(group)
    return out


# -- the run --------------------------------------------------------------------


def proxy_overhead_us(server: Any, requests: List[PlanRequest], reps: int) -> float:
    """Median of (via coordinator − direct to a worker) for one cached /plan."""
    coordinator = make_client(server.url)
    workers = [make_client(url) for url in server.worker_urls()]
    request = requests[0]
    for client in workers:
        client.plan(request)  # every worker holds it: both paths are hits
    diffs: List[float] = []
    for _ in range(reps):
        began = time.perf_counter()
        coordinator.plan(request)
        via = time.perf_counter() - began
        began = time.perf_counter()
        workers[0].plan(request)
        direct = time.perf_counter() - began
        diffs.append(via - direct)
    return statistics.median(diffs) * 1e6


def measure(run: Any) -> Dict[str, float]:
    """All per-layer metrics for ``run``'s workload (see module doc)."""
    w = run.workload
    seconds = run.seconds
    cluster = w.topology == "cluster"
    workers = 2 if cluster else 1
    out: Dict[str, float] = {name: 0.0 for name in UNITS}
    ops = run.inputs.ops(PHASE_TRACE, max(10, int(round(w.low_rps * 0.3 * seconds))))

    # 1. untraced replay
    server, _ = run.start_server("plain")
    try:
        clients = [make_client(server.url) for _ in range(THREADS)]
        before = run.begin_counts(server)
        plain = run.open_phase(clients, PHASE_TRACE, w.low_rps, 0, ops=ops, sample=True)
        run.end_counts(server, before)
        health = make_client(server.url)
        out["http.healthz_rtt_us"] = per_call_us(
            lambda _: health.healthz(), range(10), 0.02 * seconds
        )
        if cluster:
            out["cluster.proxy_overhead_us"] = proxy_overhead_us(
                server, list(ops[0].requests), reps=100
            )
            pool = health.get_json("/cluster/status")["pool"]["workers"]
            dispatched = [int(wk["dispatched"]) for wk in pool]
            out["cluster.worker_skew"] = max(dispatched) / max(1, min(dispatched))
            out["cluster.reroutes"] += sum(int(wk["failures"]) for wk in pool)
    finally:
        run.stop_server(server)

    # 2. traced replay of the same stream
    server, _ = run.start_server("traced", trace=True)
    recorder = obs.SpanRecorder(service="client")
    try:
        clients = [
            make_client(server.url, trace_sample=1, span_recorder=recorder)
            for _ in range(THREADS)
        ]
        stats_client = make_client(server.url)
        stats_before = stats_client.cache_stats()
        before = run.begin_counts(server)
        traced = run.open_phase(clients, PHASE_TRACE, w.low_rps, 0, ops=ops)
        run.end_counts(server, before)
        stats_after = stats_client.cache_stats()
        if cluster:
            pool = stats_client.get_json("/cluster/status")["pool"]["workers"]
            out["cluster.reroutes"] += sum(int(wk["failures"]) for wk in pool)
    finally:
        run.stop_server(server)
    traces = obs.assemble_traces(obs.read_spans(server.trace_files()) + recorder.drain())
    spans = span_metrics(traces)
    spans["cluster.reroutes"] += out["cluster.reroutes"]
    out.update(spans)
    hits = stats_after["hits"] - stats_before["hits"]
    lookups = hits + stats_after["misses"] - stats_before["misses"]
    out["server.hit_ratio"] = hits / lookups if lookups else 0.0
    out["obs.tracing_overhead_pct"] = (traced.p(0.5) / plain.p(0.5) - 1.0) * 100.0
    out["latency.p95_ms.low"] = plain.p(0.95)
    out["latency.p99_ms.low"] = plain.p(0.99)
    out["driver.lag_p99_ms"] = plain.lag_p99_ms()
    out["driver.achieved_ratio"] = plain.achieved_ratio()
    out.update(grouping(ops, run.inputs.warm, workers))

    # 3. benchmark-side timings of each layer's public functions
    budget = 0.3 * seconds / 20
    layer_ops = run.inputs.ops(PHASE_LAYERS, LAYER_OPS)
    codec, keys, results = codec_and_keying(layer_ops, budget)
    out.update(codec)
    out.update(stores(keys, results, str(run.scratch / "layers.db"), THREADS, budget))
    out.update(kernels(run, budget))

    run.gate()
    out["error_rate"] = run.failed / max(1, run.attempted)
    run.details.update(
        traces=len(traces),
        complete_traces=sum(1 for t in traces if t.complete),
        plain=plain.summary(w.slo_p99_ms),
        traced=traced.summary(w.slo_p99_ms),
    )
    return out
