"""Ablation: partitioner choice (column DP vs bisection vs baselines).

DESIGN.md calls out the partitioner as the load-bearing design choice of
``Comm_het``; this bench quantifies each alternative's ratio to the
lower bound on the Figure-4 speed distributions.  The whole trial ×
partitioner grid is expressed as one request batch planned by a
:class:`PlannerSession` — the ``het`` strategy's
``partitioner`` param selects the alternative, and with ``N = 1`` the
plan's ratio-to-LB *is* the unit-square half-perimeter ratio the
original loop computed.
"""

import numpy as np
import pytest

from repro import registry
from repro.core.pipeline import PlanRequest
from repro.core.session import PlannerSession
from repro.partition.lower_bound import peri_sum_lower_bound
from repro.platform.star import StarPlatform
from repro.util.tables import format_table

#: every registered area-vector partitioner, enumerated from the
#: registry (count-based ones like "grid" don't fit this protocol)
PARTITIONERS = tuple(
    comp.name
    for comp in registry.describe("partitioner")
    if comp.metadata.get("input") != "count"
)


def test_partitioner_ablation(benchmark):
    def run():
        rng = np.random.default_rng(0)
        p, trials = 30, 25
        platforms = [
            StarPlatform.from_speeds(rng.uniform(1, 100, p))
            for _ in range(trials)
        ]
        requests = [
            PlanRequest(
                platform=platform,
                N=1.0,
                strategy="het",
                params={"partitioner": name},
            )
            for platform in platforms
            for name in PARTITIONERS
        ]
        with PlannerSession() as session:
            results = session.plan_batch(requests)
        ratios = {name: [] for name in PARTITIONERS}
        for res in results:
            ratios[res.request.params["partitioner"]].append(
                res.ratio_to_lower_bound
            )
        return {name: (np.mean(v), np.max(v)) for name, v in ratios.items()}

    stats = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    print(
        format_table(
            ["partitioner", "mean ratio to LB", "worst ratio"],
            [[name, m, w] for name, (m, w) in stats.items()],
            title="Ablation: PERI-SUM objective across partitioners "
            "(p=30, uniform speeds):",
        )
    )
    # the paper's algorithm: near-optimal and guaranteed
    assert stats["peri-sum"][1] <= 1.75
    assert stats["peri-sum"][0] < 1.05
    # bisection competitive; strip far off
    assert stats["recursive"][0] < 1.10
    assert stats["strip"][0] > 2.0


def test_column_dp_scaling(benchmark):
    """Runtime ablation: the O(p²) DP stays sub-second at p=500."""
    rng = np.random.default_rng(1)
    speeds = rng.uniform(1, 100, 500)
    areas = speeds / speeds.sum()
    from repro.partition.column_based import peri_sum_cost

    cost = benchmark(peri_sum_cost, areas)
    assert cost >= peri_sum_lower_bound(areas) - 1e-9
