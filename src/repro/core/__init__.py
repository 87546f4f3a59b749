"""The paper's primary contribution: analysis + strategy layer.

* :mod:`repro.core.cost_models` — workload cost functions (linear,
  power-law :math:`N^\\alpha`, :math:`N \\log N`, …).
* :mod:`repro.core.nonlinear` — §2: the vanishing-fraction theorem for
  super-linear divisible loads.
* :mod:`repro.core.almost_linear` — §3: sorting as an *almost* divisible
  load.
* :mod:`repro.core.bounds` — §4: communication lower bounds,
  closed-form volumes and the :math:`\\rho` heterogeneity-gain bound.
* :mod:`repro.core.strategies` — the user-facing façade tying the block
  strategies, the partitioner and the platform together.
* :mod:`repro.core.pipeline` — the uniform ``PlanRequest → PlanResult``
  pipeline every registered strategy is invoked, timed and compared
  through.
* :mod:`repro.core.session` — :class:`PlannerSession`, the cached,
  batched planning API that plans in process or on a plan server
  (with :mod:`repro.core.cache` under it).
* :mod:`repro.core.vectorize` — the miss → group → kernel routing that
  lets sessions plan whole batches through the strategies' vectorised
  ``plan_batch`` kernels.
"""

from repro.core.cost_models import (
    CostModel,
    LinearCost,
    AffineCost,
    PowerLawCost,
    NLogNCost,
    CallableCost,
)
from repro.core.nonlinear import (
    total_work,
    partial_work,
    partial_work_fraction,
    residual_fraction,
    rounds_to_finish,
    dlt_phase_report,
)
from repro.core.almost_linear import (
    sorting_work,
    sorting_partial_work,
    sorting_residual_fraction,
    recommended_oversampling,
    sample_sort_cost_breakdown,
)
from repro.core.bounds import (
    lower_bound_comm,
    comm_hom_ideal,
    comm_het_upper_bound,
    rho_lower_bound,
    half_fast_rho_bound,
    PERI_SUM_GUARANTEE,
)
from repro.core.strategies import (
    OuterProductPlan,
    available_strategies,
    plan_outer_product,
    compare_strategies,
    work_coverage,
)
from repro.core.pipeline import (
    PlanRequest,
    PlanResult,
    PlanSweep,
    plan_request,
)
from repro.core.cache import (
    CacheStats,
    MemoryPlanCache,
    PlanStore,
    SQLitePlanCache,
    ThreadSafePlanStore,
    TieredPlanCache,
    cache_from_spec,
)
from repro.core.vectorize import (
    VectorGroup,
    batch_capable,
    plan_batch_requests,
    plan_request_group,
)
from repro.core.session import (
    PlannerSession,
    default_session,
    reset_default_session,
)

__all__ = [
    "CostModel",
    "LinearCost",
    "AffineCost",
    "PowerLawCost",
    "NLogNCost",
    "CallableCost",
    "total_work",
    "partial_work",
    "partial_work_fraction",
    "residual_fraction",
    "rounds_to_finish",
    "dlt_phase_report",
    "sorting_work",
    "sorting_partial_work",
    "sorting_residual_fraction",
    "recommended_oversampling",
    "sample_sort_cost_breakdown",
    "lower_bound_comm",
    "comm_hom_ideal",
    "comm_het_upper_bound",
    "rho_lower_bound",
    "half_fast_rho_bound",
    "PERI_SUM_GUARANTEE",
    "OuterProductPlan",
    "available_strategies",
    "plan_outer_product",
    "compare_strategies",
    "work_coverage",
    "PlanRequest",
    "PlanResult",
    "PlanSweep",
    "plan_request",
    "CacheStats",
    "PlanStore",
    "MemoryPlanCache",
    "SQLitePlanCache",
    "ThreadSafePlanStore",
    "TieredPlanCache",
    "cache_from_spec",
    "VectorGroup",
    "batch_capable",
    "plan_batch_requests",
    "plan_request_group",
    "PlannerSession",
    "default_session",
    "reset_default_session",
]
