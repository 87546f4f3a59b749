"""Acceptance: one sampled ``/plan_batch`` through a 2-worker cluster
assembles into a single complete trace that explains >= 90% of the
client-observed latency, with per-worker dispatch hops visible.
"""

import os
import time
import urllib.request

import numpy as np
import pytest

from repro.cluster.lifecycle import LocalCluster
from repro.core.pipeline import PlanRequest
from repro.obs import SpanRecorder, assemble_traces, read_spans, start_trace
from repro.platform.star import StarPlatform
from repro.service.client import ServiceClient

#: enough work per shard that dispatch + kernel time dominates the
#: constant per-hop overhead the spans can't see (connect, GIL handoff):
#: ``hom/k`` on a fresh random p=16 platform per request re-plans
#: ``hom`` with one demand-driven schedule per platform, which no batch
#: kernel amortises
N_REQUESTS = 64
P = 16


@pytest.fixture(scope="module")
def batch_requests():
    rng = np.random.default_rng(2013)
    return [
        PlanRequest(
            platform=StarPlatform.from_speeds(rng.uniform(1.0, 100.0, size=P)),
            N=10_000.0 + i,
            strategy="hom/k",
        )
        for i in range(N_REQUESTS)
    ]


@pytest.fixture(scope="module")
def traced_cluster_run(batch_requests, tmp_path_factory):
    """One traced /plan_batch through a live 2-worker cluster."""
    tmp = tmp_path_factory.mktemp("trace")
    trace_path = str(tmp / "spans.jsonl")
    client_rec = SpanRecorder(service="client")
    ctx = start_trace()
    with LocalCluster(
        n=2,
        cache=None,
        heartbeat_interval=30.0,
        state_path=None,
        trace=trace_path,
    ) as cluster:
        client = ServiceClient(cluster.url, span_recorder=client_rec)
        results = client.plan_items(batch_requests, trace=ctx)
        time.sleep(0.5)  # let coordinator + worker root spans flush
        prom = urllib.request.urlopen(
            f"{cluster.url}/metrics?format=prometheus", timeout=10
        ).read().decode("utf-8")
    span_files = [trace_path] + [
        f"{trace_path}.w{i}" for i in range(2)
        if os.path.exists(f"{trace_path}.w{i}")
    ]
    spans = client_rec.drain() + read_spans(span_files)
    return {
        "ctx": ctx,
        "results": results,
        "spans": spans,
        "prometheus": prom,
        "files": span_files,
    }


class TestClusterTraceAcceptance:
    def test_batch_planned(self, traced_cluster_run, batch_requests):
        assert len(traced_cluster_run["results"]) == len(batch_requests)

    def test_one_complete_trace(self, traced_cluster_run):
        traces = assemble_traces(traced_cluster_run["spans"])
        assert len(traces) == 1
        trace = traces[0]
        assert trace.trace_id == traced_cluster_run["ctx"].trace_id
        assert trace.complete, (
            f"orphans: {[s.name for s in trace.orphans]}"
        )
        assert trace.root.name == "client /plan_batch"

    def test_trace_crosses_all_three_services(self, traced_cluster_run):
        services = {span.service for span in traced_cluster_run["spans"]}
        assert services == {"client", "coordinator", "server"}

    def test_sharded_dispatch_hops_recorded(self, traced_cluster_run):
        dispatches = [
            span
            for span in traced_cluster_run["spans"]
            if span.name == "dispatch"
        ]
        assert len(dispatches) == 2  # one hop per worker
        assert {d.meta["worker"] for d in dispatches} == {
            d.meta["worker"] for d in dispatches
        }
        assert all(d.meta["outcome"] == "ok" for d in dispatches)
        assert all(d.meta["round"] == 0 for d in dispatches)
        assert sum(d.meta["items"] for d in dispatches) == N_REQUESTS

    def test_accounts_for_ninety_percent_of_latency(
        self, traced_cluster_run
    ):
        (trace,) = assemble_traces(traced_cluster_run["spans"])
        fraction = trace.accounted_fraction()
        assert fraction >= 0.90, (
            f"trace explains only {fraction:.1%} of the client latency"
        )

    def test_critical_path_reaches_a_worker_kernel(self, traced_cluster_run):
        (trace,) = assemble_traces(traced_cluster_run["spans"])
        path = [span.name for span in trace.critical_path()]
        assert path[:3] == [
            "client /plan_batch",
            "coordinator /plan_batch",
            "dispatch",
        ]
        assert "plan_kernel" in path

    def test_coordinator_serves_prometheus(self, traced_cluster_run):
        body = traced_cluster_run["prometheus"]
        assert "# TYPE repro_request_duration_seconds histogram" in body
        assert 'le="+Inf"' in body
        # the cluster-wide aggregate carries the workers' /plan_batch hits
        assert 'repro_requests_total{endpoint="/plan_batch"}' in body

    def test_repro_trace_cli_renders_the_run(
        self, traced_cluster_run, capsys
    ):
        from repro.cli import main

        # client spans live in memory; give the CLI only the files plus
        # a temp file holding the client root
        import tempfile

        with tempfile.NamedTemporaryFile(
            "w", suffix=".jsonl", delete=False
        ) as handle:
            for span in traced_cluster_run["spans"]:
                if span.service == "client":
                    handle.write(span.to_json_line() + "\n")
        code = main(
            ["trace", handle.name, *traced_cluster_run["files"], "--slow", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "per-stage latency" in out
        assert "critical path: client /plan_batch > coordinator /plan_batch" in out
        assert "(0 incomplete)" in out
