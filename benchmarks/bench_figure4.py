"""Benchmarks regenerating Figure 4 (a)–(c): experiments E7–E9.

Paper protocol (§4.3): p = 10…100 processors; speeds homogeneous /
uniform[1,100] / lognormal(0,1); 100 trials per point; y-axis = ratio of
communication volume to the lower bound ``LB = 2NΣ√x_i`` for the
``Comm_het``, ``Comm_hom`` and ``Comm_hom/k`` (e ≤ 1%) strategies.

Expected shape assertions (the paper's findings):

* 4(a) homogeneous — every strategy sits at ratio ≈ 1;
* 4(b)/4(c) heterogeneous — ``Comm_het`` within a few %, ``Comm_hom/k``
  reaching 15–30× (we assert > 8× at p = 100 for seed robustness).

Also benchmarks the vectorised batch-planning path
(``test_batch_vectorised_speedup``): a 500-request ``hom``/``het``
batch planned scalar vs through the strategies' batched kernels, with
the plans asserted equivalent and the speedup emitted as a ``BENCH``
JSON line.
"""

import json
import time

import numpy as np
import pytest

from repro.core.pipeline import PlanRequest, plan_request
from repro.core.session import PlannerSession
from repro.core.vectorize import plan_batch_requests
from repro.experiments.figure4 import run_figure4
from repro.platform.generators import make_speeds
from repro.platform.star import StarPlatform


def _run_panel(speed_model, protocol):
    # one session for the panel memoises repeated instances (every
    # homogeneous trial is content-identical)
    with PlannerSession() as session:
        return run_figure4(
            speed_model,
            processors=protocol["processors"],
            trials=protocol["trials"],
            seed=2013,
            session=session,
        )


def test_fig4a_homogeneous(benchmark, figure4_protocol):
    result = benchmark.pedantic(
        _run_panel,
        args=("homogeneous", figure4_protocol),
        iterations=1,
        rounds=1,
    )
    print()
    print(result.render())
    # Figure 4a: every registered strategy within a percent of the bound
    for name in result.means:
        assert result.final_ratio(name) < 1.01, name
    # het's overhead shrinks with p
    assert result.means["het"][-1] <= result.means["het"][0] + 1e-9


def test_fig4b_uniform(benchmark, figure4_protocol):
    result = benchmark.pedantic(
        _run_panel,
        args=("uniform", figure4_protocol),
        iterations=1,
        rounds=1,
    )
    print()
    print(result.render())
    assert result.final_ratio("het") < 1.02  # paper: "never more than 2%"
    assert result.final_ratio("hom/k") > 8.0  # paper: 15-30x
    assert result.final_ratio("hom/k") > result.final_ratio("hom")


def _sweep_style_batch(n_platforms=5, p=64, n_sizes=50, seed=2013):
    """A ρ-sweep-shaped batch: few platforms × many N × both strategies.

    This is the workload the vectorised path exists for — the same
    closed-form strategies replanned across a grid of (platform, N)
    points, as in the Figure-4 / ρ protocols.
    """
    rng = np.random.default_rng(seed)
    platforms = [
        StarPlatform.from_speeds(make_speeds("uniform", p, rng))
        for _ in range(n_platforms)
    ]
    sizes = [float(1_000 + 200 * i) for i in range(n_sizes)]
    return [
        PlanRequest(platform=platform, N=size, strategy=strategy)
        for platform in platforms
        for size in sizes
        for strategy in ("hom", "het")
    ]


def test_batch_vectorised_speedup():
    """Scalar vs vectorised planning of one 500-request hom/het batch.

    Times ``plan_request`` on each request against one
    ``plan_batch_requests`` call (no cache on either side, so both time
    real planning work), asserts the equivalence contract (plans agree
    within rtol=1e-12) and a >= 3x wall-clock speedup, then emits a
    machine-readable ``BENCH {...}`` JSON line for CI trend tracking.
    """
    requests = _sweep_style_batch()
    assert len(requests) == 500

    start = time.perf_counter()
    scalar_results = [plan_request(req) for req in requests]
    scalar_s = time.perf_counter() - start
    start = time.perf_counter()
    vector_results = plan_batch_requests(requests)
    vector_s = time.perf_counter() - start

    for a, b in zip(scalar_results, vector_results):
        assert a.strategy == b.strategy
        assert np.isclose(a.comm_volume, b.comm_volume, rtol=1e-12, atol=0)
        assert np.allclose(
            a.plan.finish_times, b.plan.finish_times, rtol=1e-12, atol=0
        )

    speedup = scalar_s / vector_s
    print()
    print(
        "BENCH "
        + json.dumps(
            {
                "name": "batch_vectorised_speedup",
                "requests": len(requests),
                "strategies": ["hom", "het"],
                "scalar_s": round(scalar_s, 4),
                "vector_s": round(vector_s, 4),
                "speedup": round(speedup, 2),
            }
        )
    )
    assert speedup >= 3.0, f"vectorised path only {speedup:.1f}x faster"


def test_batch_partition_kernel_speedup():
    """Scalar vs stacked-DP partitioning for PERI-SUM and PERI-MAX.

    64 distinct p=64 speed vectors partitioned one-by-one vs through
    the ``partition_batch`` kernels; partitions asserted bit-identical
    (the vectorisation contract) and each kernel >= 3x faster, with a
    ``BENCH {...}`` JSON line per objective.
    """
    from repro.partition.column_based import (
        peri_sum_partition,
        peri_sum_partition_batch,
    )
    from repro.partition.perimax import (
        peri_max_partition,
        peri_max_partition_batch,
    )

    rng = np.random.default_rng(2013)
    speeds = [make_speeds("uniform", 64, rng) for _ in range(64)]
    vecs = [x / x.sum() for x in speeds]

    for name, scalar, batch in (
        ("peri-sum", peri_sum_partition, peri_sum_partition_batch),
        ("peri-max", peri_max_partition, peri_max_partition_batch),
    ):
        scalar_s = min(
            _timed(lambda: [scalar(v) for v in vecs]) for _ in range(3)
        )
        batch_s = min(_timed(lambda: batch(vecs)) for _ in range(3))
        for v, part in zip(vecs, batch(vecs)):
            assert part == scalar(v)  # bit-identical rectangles
        speedup = scalar_s / batch_s
        print()
        print(
            "BENCH "
            + json.dumps(
                {
                    "name": f"batch_partition_speedup_{name}",
                    "vectors": len(vecs),
                    "p": 64,
                    "scalar_s": round(scalar_s, 4),
                    "batch_s": round(batch_s, 4),
                    "speedup": round(speedup, 2),
                }
            )
        )
        assert speedup >= 3.0, f"{name} kernel only {speedup:.1f}x faster"


def test_batch_nonlinear_solver_speedup():
    """Scalar vs stacked bisection for the §2 nonlinear DLT solvers.

    64 heterogeneous p=8 instances solved one-by-one vs through the
    ``plan_batch`` kernels; allocations asserted within the rtol=1e-12
    contract and each kernel >= 3x faster, with a ``BENCH {...}`` JSON
    line per model.
    """
    from repro.dlt.nonlinear_solver import (
        solve_nonlinear_one_port,
        solve_nonlinear_one_port_batch,
        solve_nonlinear_parallel,
        solve_nonlinear_parallel_batch,
    )

    rng = np.random.default_rng(2013)
    platforms = [
        StarPlatform.from_speeds(make_speeds("uniform", 8, rng))
        for _ in range(64)
    ]
    Ns = [float(1_000 + 100 * i) for i in range(64)]

    for name, scalar, batch in (
        ("parallel", solve_nonlinear_parallel, solve_nonlinear_parallel_batch),
        ("one_port", solve_nonlinear_one_port, solve_nonlinear_one_port_batch),
    ):
        scalar_s = _timed(
            lambda: [scalar(pl, N, alpha=2.0) for pl, N in zip(platforms, Ns)]
        )
        batch_s = min(
            _timed(lambda: batch(platforms, Ns, alpha=2.0)) for _ in range(3)
        )
        for pl, N, alloc in zip(platforms, Ns, batch(platforms, Ns, alpha=2.0)):
            expected = scalar(pl, N, alpha=2.0)
            assert np.allclose(
                alloc.amounts, expected.amounts, rtol=1e-12, atol=1e-12
            )
            assert np.allclose(
                alloc.finish, expected.finish, rtol=1e-12, atol=1e-12
            )
        speedup = scalar_s / batch_s
        print()
        print(
            "BENCH "
            + json.dumps(
                {
                    "name": f"batch_nonlinear_speedup_{name}",
                    "instances": len(platforms),
                    "p": 8,
                    "scalar_s": round(scalar_s, 4),
                    "batch_s": round(batch_s, 4),
                    "speedup": round(speedup, 2),
                }
            )
        )
        assert speedup >= 3.0, f"{name} kernel only {speedup:.1f}x faster"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_fig4c_lognormal(benchmark, figure4_protocol):
    result = benchmark.pedantic(
        _run_panel,
        args=("lognormal", figure4_protocol),
        iterations=1,
        rounds=1,
    )
    print()
    print(result.render())
    assert result.final_ratio("het") < 1.02
    assert result.final_ratio("hom/k") > 8.0
