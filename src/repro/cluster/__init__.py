"""Cluster mode: one coordinator fronting N plan-server replicas.

A single ``repro serve`` process is the throughput ceiling of the
service layer; this subsystem removes it without changing a single
client.  A :class:`~repro.cluster.coordinator.ClusterCoordinator`
listens on one address, speaks the exact binary-v2 wire protocol of
:class:`~repro.service.server.PlanServer`, and fans requests out to a
pool of ordinary worker replicas:

* :mod:`repro.cluster.pool` — membership and liveness
  (:class:`~repro.cluster.pool.WorkerPool`): the replicas the
  coordinator was started with, probed on ``/healthz``; replicas that
  miss probes are marked dead and their in-flight batches are
  reassigned.
* :mod:`repro.cluster.coordinator` — the HTTP front door: relays
  ``/plan`` and ``/plan_batch`` replies undecoded, proxies ``/cache/get``,
  dispatches each unit to the least-loaded alive worker, shards
  vectorised groups across alive workers, retries dead workers' shards
  elsewhere (bounded, bit-identical results — the rtol=1e-12 contract
  survives rerouting), and aggregates ``/metrics`` and ``/cache/stats``.
* :mod:`repro.cluster.lifecycle` — :class:`LocalCluster` plus the
  ``repro cluster up|status|down`` CLI: N local replicas on ephemeral
  ports behind one coordinator, for tests, benchmarks and demos;
  ``down`` signals the ``up`` process, as no route stops a cluster.

Clients need no changes: ``backend="remote:HOST:PORT"`` pointed at the
coordinator plans exactly as against a single server, only faster and
fault-tolerant.
"""

from repro.cluster.coordinator import ClusterCoordinator, NoWorkersError
from repro.cluster.lifecycle import LocalCluster
from repro.cluster.pool import WorkerInfo, WorkerPool

__all__ = [
    "ClusterCoordinator",
    "LocalCluster",
    "NoWorkersError",
    "WorkerInfo",
    "WorkerPool",
]
