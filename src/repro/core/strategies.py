"""User-facing façade: plan an outer product on a platform.

This is the library's quickstart entry point — it hides the strategy
classes behind one function and one comparison helper.  Strategy names
are resolved through :mod:`repro.registry`, so anything registered
under the ``"strategy"`` kind (built-in or plugin) is planable and
shows up in comparisons with no edits here:

>>> from repro.platform import StarPlatform
>>> from repro.core import plan_outer_product
>>> platform = StarPlatform.from_speeds([1, 1, 4, 4])
>>> plan = plan_outer_product(platform, N=1000, strategy="het")
>>> plan.ratio_to_lower_bound  # doctest: +SKIP
1.01...
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Sequence

import numpy as np

from repro import registry
from repro.blocks.metrics import StrategyResult
from repro.core.cost_models import CostModel
from repro.core.pipeline import PlanRequest
from repro.core.session import PlannerSession, default_session
from repro.platform.star import StarPlatform

#: alias so downstream users import one name for the result type
OuterProductPlan = StrategyResult


def available_strategies() -> tuple[str, ...]:
    """Names of every registered outer-product strategy."""
    return registry.available("strategy")


def plan_outer_product(
    platform: StarPlatform,
    N: float,
    strategy: str = "het",
    imbalance_target: float = 0.01,
    session: PlannerSession | None = None,
    **params: Any,
) -> OuterProductPlan:
    """Plan the distribution of an ``N × N`` outer product.

    ``strategy`` names any registered strategy (see
    :func:`available_strategies`); the built-ins are:

    * ``"hom"`` — Homogeneous Blocks (§4.1.1),
    * ``"hom/k"`` — refined Homogeneous Blocks with the paper's
      ``e <= imbalance_target`` stopping rule (§4.3),
    * ``"het"`` — Heterogeneous Blocks via PERI-SUM (§4.1.2).

    Extra keyword arguments are forwarded to the strategy's
    constructor when its signature accepts them.  Planning goes through
    ``session`` (default: the process-wide cached serial session), so
    repeated identical queries are served from the plan cache.
    """
    request = PlanRequest(
        platform=platform,
        N=N,
        strategy=strategy,
        params={"imbalance_target": imbalance_target, **params},
    )
    return (session or default_session()).plan(request).plan


def work_coverage(
    plan: OuterProductPlan, cost_model: "str | CostModel"
) -> float:
    """Fraction of the whole job's work one round of ``plan`` covers.

    The §2 vanishing-fraction lens applied to a *concrete* plan: the
    plan's chunks are scored under ``cost_model`` (a registered name or
    a :class:`~repro.core.cost_models.CostModel` instance) as
    :math:`\\sum_j \\text{work}(a_j) / \\text{work}(\\sum_j a_j)`.

    Chunk sizes come from the plan itself: block strategies record
    their chunk count (``detail["n_blocks"]`` — identical chunks by
    construction), anything else is scored at its per-worker shares
    recovered from the finish times (``amount_i = finish_i * s_i``, the
    linear accounting every strategy uses).

    Linear models score 1 for every plan; super-additive models score
    below 1 — the more a strategy fragments the domain, the less of the
    job one distribution round covers (``hom/k``'s many small blocks
    fall furthest), which is exactly the no-free-lunch trade a
    non-linear workload imposes on the Figure-4 strategies.
    """
    if isinstance(cost_model, str):
        cost_model = registry.create("cost_model", cost_model)
    shares = np.asarray(plan.finish_times, dtype=float) * np.asarray(
        plan.speeds, dtype=float
    )
    total = float(shares.sum())
    if total <= 0.0:
        return 1.0
    n_blocks = int(plan.detail.get("n_blocks", 0))
    if n_blocks > 0:
        amounts = np.full(n_blocks, total / n_blocks)
    else:
        amounts = shares
    whole = float(cost_model.work(total))
    if whole == 0.0:
        return 1.0
    return float(np.sum(cost_model.work(amounts))) / whole


@dataclass(frozen=True)
class StrategyComparison:
    """Every compared strategy on one instance, ready for a table row."""

    N: float
    plans: Dict[str, OuterProductPlan]

    @property
    def ratios(self) -> Dict[str, float]:
        """Ratio-to-lower-bound per strategy (Figure 4's quantity)."""
        return {
            name: plan.ratio_to_lower_bound for name, plan in self.plans.items()
        }

    @property
    def rho(self) -> float:
        """Measured :math:`\\rho = Comm_{hom} / Comm_{het}` (§4.1.3)."""
        missing = {"hom", "het"} - set(self.plans)
        if missing:
            raise ValueError(
                f"rho needs both 'hom' and 'het' plans; comparison is "
                f"missing {sorted(missing)}"
            )
        return self.plans["hom"].comm_volume / self.plans["het"].comm_volume

    def work_coverage(
        self, cost_model: "str | CostModel"
    ) -> Dict[str, float]:
        """Per-strategy :func:`work_coverage` under one cost model."""
        if isinstance(cost_model, str):
            cost_model = registry.create("cost_model", cost_model)
        return {
            name: work_coverage(plan, cost_model)
            for name, plan in self.plans.items()
        }

    def summary(self) -> str:
        lines = [f"Outer product N={self.N:g}:"]
        for plan in self.plans.values():
            lines.append(f"  {plan.summary()}")
        if "hom" in self.plans and "het" in self.plans:
            lines.append(f"  rho = Comm_hom/Comm_het = {self.rho:.3f}")
        return "\n".join(lines)


def compare_strategies(
    platform: StarPlatform,
    N: float,
    imbalance_target: float = 0.01,
    strategies: Sequence[str] | None = None,
    session: PlannerSession | None = None,
) -> StrategyComparison:
    """Run all registered strategies on the same instance (one Figure-4 cell).

    ``strategies`` restricts the sweep; by default every strategy in the
    registry participates.  ``session`` selects where misses are
    planned and the plan cache (default: the process-wide cached serial session).
    """
    sweep = (session or default_session()).sweep(
        platform,
        N,
        strategies=strategies,
        imbalance_target=imbalance_target,
    )
    plans = {name: res.plan for name, res in sweep.results.items()}
    return StrategyComparison(N=float(N), plans=plans)
